// Package proctest is the repository's one launcher for the real
// binaries: it builds the commands under cmd/, starts them as children
// with a line-by-line log, waits on the stable readiness lines they
// print, kills or drains them, and decodes their /metrics. The smoke
// drills (internal/smoke) are written on it. It reports errors instead
// of taking a *testing.T so that a program, such as the benchmark
// harness in bench/, can use it too; every error that concerns a child
// carries the child's log.
package proctest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The stable log lines of the binaries. Tests, this package and the
// benchmark harness wait on them; changing one is an interface change.
var (
	Listening = regexp.MustCompile(`listening on (\S+)`)
	Serving   = regexp.MustCompile(`serving (\d+) workers`)
	Recovered = regexp.MustCompile(`recovered (\d+) verdicts`)
)

// DrainedLine is what every server prints once it has drained.
const DrainedLine = "drained cleanly"

const (
	bootTimeout  = 30 * time.Second // a child's readiness line
	drainTimeout = 15 * time.Second // a child's exit after SIGTERM
)

// Build compiles the named commands (directories under cmd/) into dir
// with a single `go build`, so that a test run pays for compilation
// once. It works from any directory of a module that can import idnlab.
func Build(dir string, names ...string) error {
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	for _, n := range names {
		args = append(args, "idnlab/cmd/"+n)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w\n%s", err, out)
	}
	return nil
}

// lineLog collects a child's combined output line by line.
type lineLog struct {
	mu    sync.Mutex
	lines []string
	part  []byte
}

func (l *lineLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.part = append(l.part, p...)
	for {
		i := bytes.IndexByte(l.part, '\n')
		if i < 0 {
			return len(p), nil
		}
		l.lines = append(l.lines, string(l.part[:i]))
		l.part = l.part[i+1:]
	}
}

func (l *lineLog) find(re *regexp.Regexp) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.lines {
		if m := re.FindStringSubmatch(line); m != nil {
			return m
		}
	}
	return nil
}

func (l *lineLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n") + string(l.part)
}

// Proc is one child process.
type Proc struct {
	name string
	cmd  *exec.Cmd
	log  lineLog
	done chan struct{} // closed once the child has been waited for
	err  error         // cmd.Wait's result, valid after done
}

// Start launches bin with args; stdout and stderr both go to the
// child's log. name labels the child in errors.
func Start(name, bin string, args ...string) (*Proc, error) {
	p := &Proc{name: name, cmd: exec.Command(bin, args...), done: make(chan struct{})}
	p.cmd.Stdout = &p.log
	p.cmd.Stderr = &p.log
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// Run launches a child that ends by itself, waits for it and returns
// its combined output; an exit code other than 0 is an error.
func Run(name, bin string, args ...string) (string, error) {
	p, err := Start(name, bin, args...)
	if err != nil {
		return "", err
	}
	<-p.done
	if p.err != nil {
		return p.Log(), p.failf("%v", p.err)
	}
	return p.Log(), nil
}

// Log is everything the child has printed so far.
func (p *Proc) Log() string { return p.log.String() }

func (p *Proc) failf(format string, args ...any) error {
	return fmt.Errorf("%s: %s; log:\n%s", p.name, fmt.Sprintf(format, args...), p.Log())
}

func (p *Proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// WaitLine blocks until a log line matches re and returns its
// submatches; it fails when the child exits or the boot timeout passes
// first.
func (p *Proc) WaitLine(re *regexp.Regexp) ([]string, error) {
	deadline := time.Now().Add(bootTimeout)
	for {
		exited := p.exited() // before the scan: the line may arrive with the exit
		if m := p.log.find(re); m != nil {
			return m, nil
		}
		if exited {
			return nil, p.failf("exited (%v) before printing %q", p.err, re)
		}
		if time.Now().After(deadline) {
			return nil, p.failf("did not print %q within %s", re, bootTimeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Addr waits for the child's "listening on" line and returns the
// address it bound.
func (p *Proc) Addr() (string, error) {
	m, err := p.WaitLine(Listening)
	if err != nil {
		return "", err
	}
	return m[1], nil
}

// Kill sends SIGKILL and waits for the child to be gone: the crash a
// drill injects, and the cleanup of every error path. It is safe on a
// child that has already exited.
func (p *Proc) Kill() {
	_ = p.cmd.Process.Kill() // fails only if it has already exited
	<-p.done
}

// Drain sends SIGTERM and checks the clean-shutdown contract: the child
// exits with code 0 within the drain timeout, having printed
// DrainedLine. A child that does not exit in time is killed.
func (p *Proc) Drain() error {
	if p.exited() {
		return p.failf("exited (%v) before it was asked to drain", p.err)
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it just exited
	select {
	case <-p.done:
	case <-time.After(drainTimeout):
		p.Kill()
		return p.failf("did not drain within %s and was killed", drainTimeout)
	}
	if p.err != nil {
		return p.failf("exited on SIGTERM with %v", p.err)
	}
	if !strings.Contains(p.Log(), DrainedLine) {
		return p.failf("exited without printing %q", DrainedLine)
	}
	return nil
}

var client = &http.Client{Timeout: 5 * time.Second}

// Metrics decodes the JSON document at http://addr/metrics into v.
func Metrics(addr string, v any) error {
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s/metrics: status %d: %s", addr, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("decode %s/metrics: %w", addr, err)
	}
	return nil
}
