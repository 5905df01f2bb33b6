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
//	idnserve -listen 127.0.0.1:8181 -brands 1000
//	idnserve -listen 127.0.0.1:8181 -join 127.0.0.1:8180   # register with idngateway
//	idnserve -listen 127.0.0.1:8181 -index brands.cidx     # O(1) candidate index
//	curl -d '{"domain":"аррӏе.com"}' http://127.0.0.1:8181/v1/detect
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"time"

	"idnlab/internal/cli"
	"idnlab/internal/cluster"
	"idnlab/internal/serve"
	"idnlab/internal/vstore"
)

func main() { cli.Main("idnserve", run) }

func run(ctx context.Context) error {
	var (
		listen    = flag.String("listen", "127.0.0.1:8181", "HTTP listen address (use :0 for an ephemeral port)")
		topK      = flag.Int("brands", 1000, "number of top brands to defend")
		join      = flag.String("join", "", "idngateway address to register with (peer mode)")
		nodeID    = flag.String("node", "", "node ID for health bodies and ring placement (default: the advertised address with -join, else <hostname>-<pid>)")
		advertise = flag.String("advertise", "", "host:port the gateway should route to (default: the bound listen address)")
		indexPath = flag.String("index", "", "precomputed candidate index file (built by idnindex); replaces -brands with the index's embedded catalog")
		statPath  = flag.String("stat", "", "trained statistical model file (built by idnstat train); enables ensemble verdicts and the learned prefilter")
		storeDir  = flag.String("store", "", "durable verdict store directory (warm log + snapshots); empty = memory-only")
		syncEvery = flag.Duration("sync-interval", 15*time.Second, "anti-entropy re-sync cadence in peer mode")
	)
	flag.Parse()
	if *indexPath == "" {
		if err := cli.CheckBrands(*topK); err != nil {
			return err
		}
	}

	ix, stat, err := cli.LoadDetector("idnserve", *indexPath, *statPath)
	if err != nil {
		return err
	}
	var store *vstore.Store
	if *storeDir != "" {
		if store, err = vstore.Open(vstore.Config{Dir: *storeDir}); err != nil {
			return fmt.Errorf("open store: %w", err)
		}
		st := store.Stats()
		// Stable recovery line: the store smoke harness greps it.
		fmt.Printf("idnserve: store %s: recovered %d verdicts (seq %d, snapshot seq %d)\n",
			*storeDir, st.WarmBootEntries, st.Seq, st.SnapshotSeq)
	}

	srv := serve.NewServer(serve.Config{
		NodeID:  *nodeID,
		TopK:    *topK,
		Index:   ix,
		Stat:    stat,
		Store:   store,
		Replica: cluster.ReplicaConfig{SyncInterval: *syncEvery},
	})
	serveAndClose := func(ctx context.Context, addr string, ready chan<- net.Addr) error {
		err := srv.Run(ctx, addr, ready)
		if cerr := srv.CloseStore(); cerr != nil && err == nil {
			err = fmt.Errorf("close store: %w", cerr)
		}
		return err
	}
	return cli.ServeUntilDrained(ctx, "idnserve", *listen, serveAndClose, func(addr net.Addr) {
		// The exact "listening on" line is the smoke harness's readiness
		// signal; keep it stable.
		nBrands := *topK
		if ix != nil {
			nBrands = len(ix.Brands())
		}
		fmt.Printf("idnserve: listening on %s (brands=%d, SIGTERM to drain)\n", addr, nBrands)
		if *join == "" {
			return
		}
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
	})
}
