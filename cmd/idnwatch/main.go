// Command idnwatch is the continuous brand-protection daemon: it tails
// a directory of day-over-day zone deltas (IXFR-style master files,
// emitted by idnzonegen -deltas or a registry feed), streams every
// add/NS-change through the index-backed homograph matcher against a
// standing table of per-brand subscriptions, and appends confirmed
// findings to a durable group-commit alert log with at-least-once
// delivery and replayable cursors.
//
// The batch study (the paper's one-shot snapshot) answers "what is
// registered today"; idnwatch answers "what just got registered that
// imitates a brand someone watches" — and keeps answering through
// restarts: the input cursor only advances after the alerts it covers
// are fsynced, so a SIGKILL at any byte replays the interrupted delta
// instead of losing it.
//
// Usage:
//
//	idnzonegen -out ./deltas -deltas 7 -deltas-only
//	idnwatch -deltas ./deltas -alerts alerts.log -once
//	idnwatch -deltas ./deltas -alerts alerts.log -listen 127.0.0.1:8183
//	idnwatch -alerts alerts.log -replay            # dump findings
//
// SIGINT/SIGTERM drain gracefully: the in-flight delta finishes, the
// alert log commits, the cursor is saved, then the process exits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"idnlab/internal/cli"
	"idnlab/internal/core"
	"idnlab/internal/watch"
)

func main() { cli.Main("idnwatch", run) }

func run(ctx context.Context) error {
	var (
		deltaDir  = flag.String("deltas", "", "delta directory to tail (required unless -replay)")
		alertPath = flag.String("alerts", "alerts.log", "durable alert log path")
		cursor    = flag.String("cursor", "", "cursor file (default <alerts>.cursor)")
		indexPath = flag.String("index", "", "precomputed candidate index (built by idnindex); default compiles the -brands one in-process")
		topK      = flag.Int("brands", 1000, "brands to build the in-process index from (ignored with -index)")
		workers   = flag.Int("workers", 0, "match fan-out width (0 = GOMAXPROCS)")
		subsN     = flag.Int("subs", 0, "synthetic standing subscriptions to install (0 = one per brand)")
		interval  = flag.Duration("interval", time.Second, "poll interval for new delta files")
		once      = flag.Bool("once", false, "process pending deltas once, then exit")
		listen    = flag.String("listen", "", "optional HTTP address for /metrics and /healthz")
		replay    = flag.Bool("replay", false, "print the alert log from -from and exit")
		from      = flag.Int64("from", 0, "replay start cursor (byte offset)")
		statPath  = flag.String("stat", "", "trained statistical model (built by idnstat train); sheds low-suspicion churn before the SSIM probe")
	)
	flag.Parse()

	if *replay {
		return runReplay(*alertPath, *from)
	}
	if *deltaDir == "" {
		return errors.New("-deltas is required (or -replay)")
	}
	if *cursor == "" {
		*cursor = *alertPath + ".cursor"
	}

	// Detector: a prebuilt index, or the one every index-less detector
	// compiles for the top-K catalog.
	ix, stat, err := cli.LoadDetector("idnwatch", *indexPath, *statPath)
	if err != nil {
		return err
	}
	var opts []core.HomographOption
	if ix != nil {
		opts = append(opts, core.WithIndex(ix))
	}
	if stat != nil {
		opts = append(opts, core.WithStatModel(stat))
	}
	det := core.NewHomographDetector(*topK, opts...)

	// Standing subscriptions. Real deployments feed these from an API;
	// the daemon installs a deterministic synthetic population so the
	// pipeline is exercised end to end out of the box.
	catalog := det.Index().Brands()
	subs := watch.NewSubTable(len(catalog))
	n := *subsN
	if n <= 0 {
		n = len(catalog)
	}
	for i := 0; i < n; i++ {
		subs.Subscribe(uint32(i%len(catalog)), uint64(1+i))
	}
	snap := subs.Compile()

	eng, err := watch.NewEngine(det, subs, watch.EngineConfig{Workers: *workers})
	if err != nil {
		return err
	}
	log, err := watch.OpenAlertLog(*alertPath)
	if err != nil {
		return err
	}
	runner := &watch.Runner{Engine: eng, Log: log, Dir: *deltaDir, CursorPath: *cursor}

	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			log.Close()
			return err
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, "ok")
		})
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			matched, unwatched, decodeErrs := eng.Counters()
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(map[string]any{
				"pipeline":   eng.Metrics().JSON(),
				"alertLog":   log.Stats(),
				"cursor":     runner.Cursor(),
				"matched":    matched,
				"unwatched":  unwatched,
				"decodeErrs": decodeErrs,
				// detector carries rescore_early_exit and the statistical
				// prefilter's pass/shed split.
				"detector": eng.DetectorStats(),
			})
		})
		hs := &http.Server{Handler: mux}
		go hs.Serve(ln)
		go func() {
			<-ctx.Done()
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			hs.Shutdown(sctx)
		}()
		// The exact "listening on" line is the smoke harness's readiness
		// signal; keep it stable.
		fmt.Printf("idnwatch: listening on %s\n", ln.Addr())
	}

	fmt.Printf("idnwatch: watching %s (brands=%d, subscriptions=%d, SIGTERM to drain)\n",
		*deltaDir, len(catalog), snap.Total())

	if *once {
		files, alerts, err := runner.Poll(ctx)
		if err != nil {
			log.Close()
			return err
		}
		if err := log.Close(); err != nil {
			return err
		}
		matched, _, _ := eng.Counters()
		st := log.Stats()
		fmt.Printf("idnwatch: processed %d deltas: %d alerts (matched=%d, commits=%d, avg batch %.1f), cursor serial=%d\n",
			files, alerts, matched, st.Commits, st.AvgBatch(), runner.Cursor().Serial)
		fmt.Println("idnwatch: drained cleanly")
		return nil
	}

	err = runner.Run(ctx, *interval)
	cerr := log.Close()
	if err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	if cerr != nil {
		return cerr
	}
	fmt.Printf("idnwatch: cursor serial=%d logOffset=%d\n", runner.Cursor().Serial, runner.Cursor().LogOffset)
	fmt.Println("idnwatch: drained cleanly")
	return nil
}

// runReplay dumps the alert log as JSON lines — the consumer side of
// the at-least-once contract (dedup by alert key is the reader's job,
// shown here with a seen-set).
func runReplay(path string, from int64) error {
	seen := make(map[string]struct{})
	total, dups := 0, 0
	end, err := watch.ReplayAlertLog(path, from, func(off int64, a watch.Alert) error {
		total++
		if _, dup := seen[a.Key()]; dup {
			dups++
			return nil
		}
		seen[a.Key()] = struct{}{}
		line, err := json.Marshal(a)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "idnwatch: replayed %d alerts (%d duplicates suppressed), next cursor %d\n", total, dups, end)
	return nil
}
