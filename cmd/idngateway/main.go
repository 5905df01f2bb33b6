// Command idngateway fronts a cluster of idnserve workers: a
// consistent-hash (rendezvous) gateway that partitions the verdict
// keyspace by normalized ACE domain, so each name's verdict is cached on
// exactly one owner and aggregate cache capacity grows with node count.
//
// Endpoints:
//
//	POST /v1/detect        routed to the key's ring owner
//	POST /v1/detect/batch  split by owner, scatter/gathered, reassembled in order
//	POST /v1/join          worker registration + heartbeat (idnserve -join)
//	GET  /healthz          gateway liveness; 503 while draining
//	GET  /readyz           cluster readiness (>= min-ready alive workers)
//	GET  /clusterz         membership, ring and router counters
//	GET  /metrics          gateway counters + merged per-worker metrics
//
// Failure handling: membership is the only failure detector. A killed
// worker is detected by proxy-failure feedback (faster than the
// heartbeat timers), its key range reassigns to the surviving ring, and
// in-flight requests retry on survivors — clients see latency, not
// errors. A worker that heartbeats again takes its traffic back at
// once.
//
// Usage:
//
//	idngateway -listen 127.0.0.1:8180
//	idnserve -listen 127.0.0.1:8181 -join 127.0.0.1:8180
//	idnserve -listen 127.0.0.1:8182 -join 127.0.0.1:8180
//	curl -d '{"domain":"аррӏе.com"}' http://127.0.0.1:8180/v1/detect
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"idnlab/internal/cli"
	"idnlab/internal/cluster"
)

func main() { cli.Main("idngateway", run) }

func run(ctx context.Context) error {
	var (
		listen    = flag.String("listen", "127.0.0.1:8180", "HTTP listen address (use :0 for an ephemeral port)")
		nodeID    = flag.String("node", "", "gateway node ID (default generated)")
		heartbeat = flag.Duration("heartbeat", time.Second, "worker heartbeat cadence advertised on join; a worker silent for 3x is suspect, for 10x dead")
		minReady  = flag.Int("min-ready", 1, "alive workers required for /readyz")
	)
	flag.Parse()

	id := *nodeID
	if id == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "gateway"
		}
		id = fmt.Sprintf("gw-%s-%d", host, os.Getpid())
	}
	gw := cluster.NewGateway(cluster.GatewayConfig{
		NodeID:     id,
		Membership: cluster.MembershipConfig{HeartbeatInterval: *heartbeat},
		MinReady:   *minReady,
	})
	return cli.ServeUntilDrained(ctx, "idngateway", *listen, gw.Run, func(addr net.Addr) {
		// The exact "listening on" line is the smoke harness's readiness
		// signal; keep it stable.
		fmt.Printf("idngateway: listening on %s (min-ready=%d, SIGTERM to drain)\n", addr, *minReady)
		go announceQuorum(ctx, gw, *minReady)
	})
}

// announceQuorum prints a stable line once min-ready workers are alive
// — the cluster smoke harness's signal that scatter targets exist.
func announceQuorum(ctx context.Context, gw *cluster.Gateway, minReady int) {
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if n := gw.Membership().AliveCount(); n >= minReady {
				fmt.Printf("idngateway: serving %d workers\n", n)
				return
			}
		case <-ctx.Done():
			return
		}
	}
}
