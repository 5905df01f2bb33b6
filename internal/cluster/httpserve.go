package cluster

import (
	"context"
	"net"
	"net/http"
	"sync/atomic"
	"time"
)

// The listener lifecycle and status accounting the gateway and the
// worker (internal/serve) share.

// StatusWriter captures the response code for the status counters.
type StatusWriter struct {
	http.ResponseWriter
	Code int
}

func (w *StatusWriter) WriteHeader(code int) {
	w.Code = code
	w.ResponseWriter.WriteHeader(code)
}

// StatusCounts counts client-facing responses by status class; 429 is
// its own class because back-pressure is not a client error.
type StatusCounts struct {
	S2xx, S4xx, S429, S5xx atomic.Uint64
}

func (c *StatusCounts) Observe(code int) {
	switch {
	case code == 429:
		c.S429.Add(1)
	case code >= 500:
		c.S5xx.Add(1)
	case code >= 400:
		c.S4xx.Add(1)
	case code >= 200 && code < 300:
		c.S2xx.Add(1)
	}
}

// drainTimeout bounds graceful shutdown of both daemons.
const drainTimeout = 5 * time.Second

// ListenAndDrain serves h on addr until ctx is cancelled, then drains
// gracefully: draining flips (so /healthz answers 503 and load
// balancers stop sending), in-flight requests get up to drainTimeout
// to finish, and the listener closes. The bound address is reported
// through ready (useful with ":0"); pass nil if not needed.
func ListenAndDrain(ctx context.Context, addr string, ready chan<- net.Addr, h http.Handler, draining *atomic.Bool) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- ln.Addr()
	}
	httpSrv := &http.Server{
		Handler:           h,
		ReadTimeout:       5 * time.Second,
		ReadHeaderTimeout: 2 * time.Second,
		WriteTimeout:      10 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	draining.Store(true)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		httpSrv.Close()
		return err
	}
	return nil
}
