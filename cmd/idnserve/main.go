// Command idnserve hosts the homograph and Type-1 semantic detectors as
// a long-running HTTP JSON service — the paper's batch detectors (§VI,
// §VII) turned into an online verdict API with a sharded LRU verdict
// cache, singleflight dedup, admission control with load shedding, and
// live metrics.
//
// Endpoints:
//
//	POST /v1/detect        {"domain":"xn--pple-43d.com"}
//	POST /v1/detect/batch  {"domains":["...","..."]}
//	GET  /healthz          liveness; 503 while draining
//	GET  /readyz           readiness: warm-up done + admission headroom
//	GET  /clusterz         peer-mode membership view (with -join)
//	GET  /metrics          JSON counters, latency percentiles, cache+admission stats
//
// SIGINT/SIGTERM trigger a graceful drain: health flips to 503,
// in-flight requests finish, then the listener closes.
//
// Usage:
//
//	idnserve -listen 127.0.0.1:8181 -brands 1000 -cache 65536
//	idnserve -listen 127.0.0.1:8181 -join 127.0.0.1:8180   # register with idngateway
//	idnserve -listen 127.0.0.1:8181 -index brands.cidx     # O(1) candidate index
//	curl -d '{"domain":"аррӏе.com"}' http://127.0.0.1:8181/v1/detect
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"idnlab/internal/candidx"
	"idnlab/internal/cluster"
	"idnlab/internal/feat"
	"idnlab/internal/serve"
	"idnlab/internal/vstore"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "idnserve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen       = flag.String("listen", "127.0.0.1:8181", "HTTP listen address (use :0 for an ephemeral port)")
		topK         = flag.Int("brands", 1000, "number of top brands to defend")
		threshold    = flag.Float64("threshold", 0, "SSIM detection threshold (0 = default)")
		workers      = flag.Int("workers", 0, "batch fan-out width (0 = GOMAXPROCS)")
		cacheSize    = flag.Int("cache", 65536, "verdict cache capacity (entries)")
		cacheShards  = flag.Int("cache-shards", 16, "verdict cache shard count")
		maxInflight  = flag.Int("max-inflight", 0, "concurrent detector work bound (0 = 4x workers)")
		maxQueue     = flag.Int("max-queue", 0, "admission queue depth (0 = 16x max-inflight, -1 = no queue)")
		queueWait    = flag.Duration("queue-wait", 50*time.Millisecond, "max time a request may queue for admission")
		reqTimeout   = flag.Duration("timeout", time.Second, "per-request deadline")
		maxBatch     = flag.Int("max-batch", 256, "max labels per batch request")
		drain        = flag.Duration("drain", 5*time.Second, "graceful shutdown budget")
		join         = flag.String("join", "", "idngateway address to register with (peer mode)")
		nodeID       = flag.String("node", "", "node ID for health bodies and ring placement (default <hostname>-<pid>)")
		advertise    = flag.String("advertise", "", "host:port the gateway should route to (default: the bound listen address)")
		maxRPS       = flag.Int("rate", 0, "per-node request rate cap, req/s (0 = unlimited)")
		indexPath    = flag.String("index", "", "precomputed candidate index file (built by idnindex); replaces -brands with the index's embedded catalog")
		statPath     = flag.String("stat", "", "trained statistical model file (built by idnstat train); enables ensemble verdicts and the learned prefilter")
		storeDir     = flag.String("store", "", "durable verdict store directory (warm log + snapshots); empty = memory-only")
		storeCompact = flag.Int64("store-compact", 8<<20, "active-log bytes that trigger snapshot compaction (-1 disables)")
		storeNoFsync = flag.Bool("store-no-fsync", false, "skip fsyncs in the store (testing only; crashes may lose recent verdicts)")
		syncEvery    = flag.Duration("sync-interval", 15*time.Second, "anti-entropy re-sync cadence in peer mode")
	)
	flag.Parse()

	var ix *candidx.Index
	if *indexPath != "" {
		loaded, err := candidx.LoadFile(*indexPath)
		if err != nil {
			return fmt.Errorf("load index: %w", err)
		}
		ix = loaded
		fmt.Printf("idnserve: index %s: %d brands, %d keys, fingerprint %016x\n",
			*indexPath, len(ix.Brands()), ix.KeyCount(), ix.Fingerprint())
	}
	var stat *feat.Model
	if *statPath != "" {
		loaded, err := feat.LoadFile(*statPath)
		if err != nil {
			return fmt.Errorf("load stat model: %w", err)
		}
		stat = loaded
		fmt.Printf("idnserve: stat model %s: seed %d, %d bigrams, flag %.3f, prefilter %.3f\n",
			*statPath, stat.Seed(), stat.BigramCount(), stat.FlagRaw(), stat.PrefilterRaw())
	}

	var store *vstore.Store
	if *storeDir != "" {
		opened, err := vstore.Open(vstore.Config{Dir: *storeDir, CompactBytes: *storeCompact, NoFsync: *storeNoFsync})
		if err != nil {
			return fmt.Errorf("open store: %w", err)
		}
		store = opened
		st := store.Stats()
		// Stable recovery line: the store smoke harness greps it.
		fmt.Printf("idnserve: store %s: recovered %d verdicts (seq %d, snapshot seq %d)\n",
			*storeDir, st.WarmBootEntries, st.Seq, st.SnapshotSeq)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := serve.NewServer(serve.Config{
		NodeID:         *nodeID,
		MaxRPS:         *maxRPS,
		TopK:           *topK,
		Threshold:      *threshold,
		Workers:        *workers,
		CacheSize:      *cacheSize,
		CacheShards:    *cacheShards,
		MaxInflight:    *maxInflight,
		MaxQueue:       *maxQueue,
		QueueWait:      *queueWait,
		RequestTimeout: *reqTimeout,
		MaxBatch:       *maxBatch,
		DrainTimeout:   *drain,
		Index:          ix,
		Stat:           stat,
		Store:          store,
		Replica:        cluster.ReplicaConfig{SyncInterval: *syncEvery},
	})

	ready := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() { errc <- srv.Run(ctx, *listen, ready) }()
	select {
	case addr := <-ready:
		// The exact "listening on" line is the smoke harness's readiness
		// signal; keep it stable.
		nBrands := *topK
		if ix != nil {
			nBrands = len(ix.Brands())
		}
		fmt.Printf("idnserve: listening on %s (brands=%d, SIGTERM to drain)\n", addr, nBrands)
		if *join != "" {
			// Peer mode: self-register with the gateway and heartbeat on
			// its advertised cadence. The advertise address defaults to
			// the actually bound listener (resolves :0 correctly).
			adv := *advertise
			if adv == "" {
				adv = addr.String()
			}
			id := *nodeID
			if id == "" {
				id = adv // a worker's reachable address is a fine identity
			}
			p := cluster.NewPeer(*join, id, adv)
			srv.AttachPeer(p)
			go p.Run(ctx)
			if store != nil {
				// Replication + anti-entropy only make sense with peers to
				// talk to; a standalone durable node is just warm-boot.
				go srv.Replica().Run(ctx)
			}
			fmt.Printf("idnserve: joining cluster at %s as %s (%s)\n", *join, id, adv)
		}
	case err := <-errc:
		return err
	}
	err := <-errc
	if cerr := srv.CloseStore(); cerr != nil && err == nil {
		err = fmt.Errorf("close store: %w", cerr)
	}
	if err == nil {
		fmt.Println("idnserve: drained cleanly")
	}
	return err
}
