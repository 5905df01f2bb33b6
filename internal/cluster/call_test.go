package cluster

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// TestCall pins the one node-to-node exchange: which outcomes are
// answers and which are failures, that a failure leaves nothing for the
// caller to release, and that the reply is always read to the end so
// the connection goes back to the pool (two calls, one connection).
func TestCall(t *testing.T) {
	big := bytes.Repeat([]byte("x"), MaxReplyBytes+5)
	for _, tc := range []struct {
		name       string
		handler    http.HandlerFunc
		cancelled  bool
		wantErr    bool
		status     int
		body       string // "" with bodyLen set: only the length is checked
		bodyLen    int
		retryAfter string
		noReuse    bool // the reply was cut short, so the connection is not reusable
	}{
		{name: "200", status: 200, body: `{"ok":true}`, handler: func(w http.ResponseWriter, r *http.Request) {
			if r.Header.Get("Content-Type") != "application/json" || r.Method != http.MethodPost {
				t.Errorf("request arrived as %s with Content-Type %q", r.Method, r.Header.Get("Content-Type"))
			}
			w.Write([]byte(`{"ok":true}`))
		}},
		{name: "404 is an answer", status: 404, body: "not cached\n", handler: func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "not cached", http.StatusNotFound)
		}},
		{name: "429 keeps Retry-After", status: 429, body: "slow down\n", retryAfter: "7", handler: func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "7")
			http.Error(w, "slow down", http.StatusTooManyRequests)
		}},
		{name: "5xx is a failure", wantErr: true, handler: func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, strings.Repeat("boom ", 1000), http.StatusServiceUnavailable)
		}},
		{name: "transport error", wantErr: true, noReuse: true, handler: func(w http.ResponseWriter, r *http.Request) {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			conn.Close()
		}},
		{name: "body over the limit is truncated", status: 200, bodyLen: MaxReplyBytes, noReuse: true, handler: func(w http.ResponseWriter, r *http.Request) {
			w.Write(big)
		}},
		{name: "caller cancellation", cancelled: true, wantErr: true, noReuse: true, handler: func(w http.ResponseWriter, r *http.Request) {
			t.Error("a cancelled call reached the node")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var conns atomic.Int64
			ts := httptest.NewUnstartedServer(tc.handler)
			ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
				if s == http.StateNew {
					conns.Add(1)
				}
			}
			ts.Start()
			defer ts.Close()
			tr := &http.Transport{}
			defer tr.CloseIdleConnections()
			doer := &http.Client{Transport: tr}
			addr := strings.TrimPrefix(ts.URL, "http://")

			for i := 0; i < 2; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				if tc.cancelled {
					cancel()
				}
				rep, err := call(ctx, doer, http.MethodPost, addr, "/x", []byte(`{}`))
				cancel()
				if tc.wantErr {
					if err == nil {
						t.Fatalf("call %d: no error", i)
					}
					if tc.cancelled && !errors.Is(err, context.Canceled) {
						t.Fatalf("call %d: err = %v, want context.Canceled", i, err)
					}
					if rep.pooled != nil || rep.Body != nil || rep.Status != 0 {
						t.Fatalf("call %d: failed call returned a reply to release: %+v", i, rep)
					}
					continue
				}
				if err != nil {
					t.Fatalf("call %d: %v", i, err)
				}
				if rep.Status != tc.status || rep.RetryAfter != tc.retryAfter {
					t.Fatalf("call %d: status %d Retry-After %q, want %d %q", i, rep.Status, rep.RetryAfter, tc.status, tc.retryAfter)
				}
				if tc.bodyLen > 0 {
					if len(rep.Body) != tc.bodyLen {
						t.Fatalf("call %d: body %d bytes, want %d", i, len(rep.Body), tc.bodyLen)
					}
				} else if string(rep.Body) != tc.body {
					t.Fatalf("call %d: body %q, want %q", i, rep.Body, tc.body)
				}
				// The Reply owns the pooled buffer until released.
				if rep.pooled == nil || &(*rep.pooled)[0] != &rep.Body[0] {
					t.Fatalf("call %d: Body is not the pooled buffer", i)
				}
				rep.Release()
				if rep.pooled != nil || rep.Body != nil {
					t.Fatalf("call %d: Release left the buffer attached", i)
				}
			}
			if got := conns.Load(); !tc.noReuse && got != 1 {
				t.Fatalf("two calls opened %d connections, want 1 (reply not drained?)", got)
			}
		})
	}
}
