package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The supervisor's children in these tests are this test binary itself,
// re-executed with fakeChildEnv set: TestMain turns it into a child that
// prints the stable lines the real binaries print.
const fakeChildEnv = "E2E_FAKE_CHILD"

func TestMain(m *testing.M) {
	if mode := os.Getenv(fakeChildEnv); mode != "" {
		fakeChild(mode)
		return
	}
	os.Exit(m.Run())
}

func fakeChild(mode string) {
	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGTERM)
	switch mode {
	case "server":
		fmt.Println("fake: store /tmp/x: recovered 42 verdicts (seq 42, snapshot seq 0)")
		fmt.Println("fake: listening on 127.0.0.1:4242 (brands=1000, SIGTERM to drain)")
		fmt.Println("fake: serving 2 workers")
		spin := time.Now()
		for time.Since(spin) < 30*time.Millisecond { // some CPU to account for
		}
		<-term
		fmt.Println("fake: drained cleanly")
	case "stubborn":
		fmt.Println("fake: listening on 127.0.0.1:4242")
		select {} // SIGTERM is caught and ignored
	case "silent":
		<-term
	case "dies":
		fmt.Fprintln(os.Stderr, "fake: cannot open index")
		os.Exit(3)
	case "nodrain":
		fmt.Println("fake: listening on 127.0.0.1:4242")
		<-term
	}
}

func fakeSupervisor(t *testing.T) (*supervisor, string) {
	t.Helper()
	parent := t.TempDir()
	s, err := newSupervisor(context.Background(), parent)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	return s, parent
}

func startFake(t *testing.T, s *supervisor, mode string) *proc {
	t.Helper()
	p, err := s.start(mode, []string{fakeChildEnv + "=" + mode}, nil, os.Args[0])
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSupervisorBootsDrainsAndCleansUp(t *testing.T) {
	s, parent := fakeSupervisor(t)
	p := startFake(t, s, "server")
	m, err := p.waitLine(reListening, 5*time.Second)
	if err != nil || m[1] != "127.0.0.1:4242" {
		t.Fatalf("readiness: %v %v", m, err)
	}
	if m, err := p.waitLine(reRecovered, time.Second); err != nil || m[1] != "42" {
		t.Fatalf("recovered line: %v %v", m, err)
	}
	if m, err := p.waitLine(reServing, time.Second); err != nil || m[1] != "2" {
		t.Fatalf("serving line: %v %v", m, err)
	}
	if _, err := p.cpu(); err != nil {
		t.Fatalf("reading /proc CPU: %v", err)
	}
	pid := p.cmd.Process.Pid
	if err := s.stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	rss, cpu := p.usage()
	if rss <= 0 || cpu <= 0 {
		t.Fatalf("rusage of the exited child: rss %d, cpu %s", rss, cpu)
	}
	if err := syscall.Kill(pid, 0); err == nil {
		t.Fatal("the child is still there after stop")
	}
	s.close()
	if left, _ := os.ReadDir(parent); len(left) != 0 {
		t.Fatalf("temp dir left behind: %v", left)
	}
}

func TestSupervisorStopsInReverseOrder(t *testing.T) {
	s, _ := fakeSupervisor(t)
	first, second := startFake(t, s, "server"), startFake(t, s, "server")
	for _, p := range []*proc{first, second} {
		if _, err := p.waitLine(reListening, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.stop(); err != nil {
		t.Fatal(err)
	}
	if !first.exited() || !second.exited() {
		t.Fatal("a child survived stop")
	}
	if !second.end.Before(first.end) {
		t.Fatalf("the last-started child exited at %s, after the first at %s", second.end, first.end)
	}
}

func TestSupervisorReportsAChildThatNeverGetsReady(t *testing.T) {
	s, _ := fakeSupervisor(t)
	_, err := startFake(t, s, "silent").waitLine(reListening, 50*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "did not print") {
		t.Fatalf("want a readiness timeout, got %v", err)
	}
	_, err = startFake(t, s, "dies").waitLine(reListening, 5*time.Second)
	if err == nil || !strings.Contains(err.Error(), "cannot open index") {
		t.Fatalf("want the dead child's log in the error, got %v", err)
	}
}

func TestSupervisorKillsStragglersAndAssertsTheDrainLine(t *testing.T) {
	s, _ := fakeSupervisor(t)
	s.drain = 100 * time.Millisecond
	stubborn := startFake(t, s, "stubborn")
	if _, err := stubborn.waitLine(reListening, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	err := s.stop()
	if err == nil || !strings.Contains(err.Error(), "was killed") {
		t.Fatalf("want a straggler report, got %v", err)
	}
	if !stubborn.exited() {
		t.Fatal("the straggler survived")
	}

	s2, _ := fakeSupervisor(t)
	nodrain := startFake(t, s2, "nodrain")
	if _, err := nodrain.waitLine(reListening, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	err = s2.stop()
	if err == nil || !strings.Contains(err.Error(), drainedLine) {
		t.Fatalf("want a missing drain line report, got %v", err)
	}
}

func TestStableLinesMatchTheBinaries(t *testing.T) {
	// The lines cmd/idnserve and cmd/idngateway print, verbatim.
	cases := []struct {
		re   interface{ FindStringSubmatch(string) []string }
		line string
		want string
	}{
		{reListening, "idnserve: listening on 127.0.0.1:38789 (brands=1000, SIGTERM to drain)", "127.0.0.1:38789"},
		{reListening, "idngateway: listening on 127.0.0.1:8180 (min-ready=2, SIGTERM to drain)", "127.0.0.1:8180"},
		{reServing, "idngateway: serving 2 workers", "2"},
		{reRecovered, "idnserve: store /tmp/s: recovered 32768 verdicts (seq 32768, snapshot seq 0)", "32768"},
		{reWatchSummary, "idnwatch: processed 10 deltas: 5400 alerts (matched=5400, commits=351, avg batch 15.4), cursor serial=2017080110", "10"},
	}
	for _, c := range cases {
		if m := c.re.FindStringSubmatch(c.line); m == nil || m[1] != c.want {
			t.Errorf("%q: got %v, want %q", c.line, m, c.want)
		}
	}
}
