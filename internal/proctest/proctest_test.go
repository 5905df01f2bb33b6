package proctest

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"testing"
)

// The test binary is its own child: run as `<binary> proctest-child
// <mode>` it plays a server with the given shutdown behaviour.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "proctest-child" {
		child(os.Args[2])
	}
	os.Exit(m.Run())
}

func child(mode string) {
	if mode == "early-exit" {
		fmt.Fprintln(os.Stderr, "child: no such index")
		os.Exit(1)
	}
	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGTERM)
	fmt.Println("child: listening on 127.0.0.1:4242 (SIGTERM to drain)")
	<-term
	switch mode {
	case "clean":
		fmt.Println("child: drained cleanly")
	case "silent": // exits 0 but never says it drained
	case "failing":
		fmt.Println("child: drained cleanly")
		os.Exit(3)
	}
	os.Exit(0)
}

func startChild(t *testing.T, mode string) *Proc {
	t.Helper()
	p, err := Start(mode, os.Args[0], "proctest-child", mode)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Kill)
	return p
}

func TestReadinessAndCleanDrain(t *testing.T) {
	p := startChild(t, "clean")
	addr, err := p.Addr()
	if err != nil || addr != "127.0.0.1:4242" {
		t.Fatalf("Addr = %q, %v; want the address on the listening line", addr, err)
	}
	if err := p.Drain(); err != nil {
		t.Fatalf("clean child: %v", err)
	}
}

// A drain is only clean with exit 0 and the drained line; a violation
// names the child and prints its log.
func TestDrainViolations(t *testing.T) {
	for mode, want := range map[string]string{
		"silent":  "without printing",
		"failing": "exit status 3",
	} {
		p := startChild(t, mode)
		if _, err := p.Addr(); err != nil {
			t.Fatal(err)
		}
		err := p.Drain()
		if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "child: listening on") {
			t.Errorf("%s child: Drain = %v; want an error with %q and the child's log", mode, err, want)
		}
	}
}

func TestWaitLineReportsEarlyExit(t *testing.T) {
	p := startChild(t, "early-exit")
	_, err := p.Addr()
	if err == nil || !strings.Contains(err.Error(), "no such index") {
		t.Fatalf("Addr on a child that died at boot = %v; want an error carrying its log", err)
	}
	if _, err := Run("early-exit", os.Args[0], "proctest-child", "early-exit"); err == nil {
		t.Fatal("Run of a child that exits 1 returned no error")
	}
}

func TestKillThenDrainFails(t *testing.T) {
	p := startChild(t, "clean")
	if _, err := p.Addr(); err != nil {
		t.Fatal(err)
	}
	p.Kill()
	p.Kill() // safe on a dead child
	if err := p.Drain(); err == nil {
		t.Fatal("Drain of a killed child returned no error")
	}
}

func TestMetricsDecodes(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, `{"cache":{"hits":7}}`)
	}))
	defer ts.Close()
	var m struct {
		Cache struct {
			Hits uint64 `json:"hits"`
		} `json:"cache"`
	}
	if err := Metrics(strings.TrimPrefix(ts.URL, "http://"), &m); err != nil || m.Cache.Hits != 7 {
		t.Fatalf("Metrics = %+v, %v", m, err)
	}
	ts.Close()
	if err := Metrics(strings.TrimPrefix(ts.URL, "http://"), &m); err == nil {
		t.Fatal("Metrics against a closed server returned no error")
	}
}
