package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Process supervisor: boots the real binaries as children, waits for
// their stable readiness lines, reads their CPU and peak memory from
// /proc, and drains them with SIGTERM. Everything a workload starts
// lives in one supervisor and one temp dir, and is gone after close.

// The stable log lines the binaries print (the smoke scripts grep the
// same ones).
var (
	reListening = regexp.MustCompile(`listening on (\S+)`)
	reServing   = regexp.MustCompile(`serving (\d+) workers`)
	reRecovered = regexp.MustCompile(`recovered (\d+) verdicts`)
	drainedLine = "drained cleanly"
)

const (
	bootTimeout  = 30 * time.Second
	drainTimeout = 15 * time.Second
	// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat;
	// Linux fixes it at 100 for user space.
	clockTick = 100
)

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

// find returns the submatches of the first line re matches.
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

func (l *lineLog) contains(s string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.lines {
		if strings.Contains(line, s) {
			return true
		}
	}
	return false
}

func (l *lineLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n") + string(l.part)
}

// proc is one child process.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  *lineLog
	done chan struct{} // closed once the child has been waited for
	err  error         // cmd.Wait's result, valid after done
	end  time.Time     // when the wait returned, valid after done

	peak     int64         // highest VmHWM sampled, in bytes; valid after peakDone
	peakDone chan struct{} // closed once the sampler has stopped
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// waitLine blocks until a log line matches re, the child exits or the
// timeout passes; a failure carries the child's log.
func (p *proc) waitLine(re *regexp.Regexp, timeout time.Duration) ([]string, error) {
	deadline := time.Now().Add(timeout)
	for {
		if m := p.log.find(re); m != nil {
			return m, nil
		}
		if p.exited() {
			// The line may have arrived with the exit.
			if m := p.log.find(re); m != nil {
				return m, nil
			}
			return nil, fmt.Errorf("%s exited (%v) before printing %q; log:\n%s", p.name, p.err, re, p.log)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s did not print %q within %s; log:\n%s", p.name, re, timeout, p.log)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// cpu is the CPU time (user+system) the live child has used so far.
func (p *proc) cpu() (time.Duration, error) {
	return procCPU(p.cmd.Process.Pid)
}

func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after
	// its closing parenthesis with field 3, so utime and stime (fields
	// 14 and 15) are at offsets 11 and 12.
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat: %q", pid, raw)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// usage is the kernel's account of an exited child: peak resident set
// and total CPU.
//
// The peak is the last VmHWM the sampler read, not wait4's ru_maxrss: Go
// starts children with vfork semantics, and at exec the kernel folds the
// parent's own high-water mark into the child's ru_maxrss, so a child
// smaller than the harness would report the harness's size.
func (p *proc) usage() (peakRSSBytes int64, cpu time.Duration) {
	<-p.peakDone
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return p.peak, cpu
}

// peakSampleEvery is how often a child's VmHWM is read. The mark only
// rises, so the last sample misses at most what the child grew in its
// final interval.
const peakSampleEvery = 10 * time.Millisecond

// samplePeak reads the child's VmHWM until it exits.
func (p *proc) samplePeak() {
	defer close(p.peakDone)
	tick := time.NewTicker(peakSampleEvery)
	defer tick.Stop()
	for {
		if hwm, err := procVmHWM(p.cmd.Process.Pid); err == nil && hwm > p.peak {
			p.peak = hwm
		}
		select {
		case <-p.done:
			return
		case <-tick.C:
		}
	}
}

// procVmHWM is the peak resident set of a live process, in bytes.
func procVmHWM(pid int) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// supervisor owns a workload's children and its temp dir.
type supervisor struct {
	ctx   context.Context
	dir   string
	drain time.Duration // how long stop waits for a child after SIGTERM
	procs []*proc
}

// newSupervisor makes a fresh temp dir under parent. Cancelling ctx kills
// every child.
func newSupervisor(ctx context.Context, parent string) (*supervisor, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(parent, "wl-")
	if err != nil {
		return nil, err
	}
	return &supervisor{ctx: ctx, dir: dir, drain: drainTimeout}, nil
}

func (s *supervisor) path(elem ...string) string {
	return filepath.Join(append([]string{s.dir}, elem...)...)
}

// start launches bin with args in the temp dir. env entries are added to
// the harness's own environment. Output goes to the child's log, except
// that stdout goes to stdout alone when it is given.
func (s *supervisor) start(name string, env []string, stdout io.Writer, bin string, args ...string) (*proc, error) {
	p := &proc{name: name, log: &lineLog{}, done: make(chan struct{}), peakDone: make(chan struct{})}
	p.cmd = exec.CommandContext(s.ctx, bin, args...)
	p.cmd.Dir = s.dir
	p.cmd.Env = append(os.Environ(), env...)
	p.cmd.Stderr = p.log
	p.cmd.Stdout = p.log
	if stdout != nil {
		p.cmd.Stdout = stdout
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	s.procs = append(s.procs, p)
	go p.samplePeak()
	go func() {
		p.err = p.cmd.Wait()
		p.end = time.Now()
		close(p.done)
	}()
	return p, nil
}

// run launches a child that ends by itself and waits for it; an exit
// code other than 0 is an error carrying the log.
func (s *supervisor) run(name string, env []string, stdout io.Writer, bin string, args ...string) (*proc, error) {
	p, err := s.start(name, env, stdout, bin, args...)
	if err != nil {
		return nil, err
	}
	<-p.done
	if p.err != nil {
		return p, fmt.Errorf("%s: %w; log:\n%s", name, p.err, p.log)
	}
	return p, nil
}

// stop drains every live child with SIGTERM, last started first, and
// checks that each exited with code 0 after printing its drained line. A
// child that does not exit in time is killed and reported.
func (s *supervisor) stop() error {
	var errs []error
	for i := len(s.procs) - 1; i >= 0; i-- {
		p := s.procs[i]
		if p.exited() {
			continue
		}
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it just exited
		select {
		case <-p.done:
		case <-time.After(s.drain):
			_ = p.cmd.Process.Kill()
			<-p.done
			errs = append(errs, fmt.Errorf("%s did not drain within %s and was killed; log:\n%s", p.name, s.drain, p.log))
			continue
		}
		if p.err != nil {
			errs = append(errs, fmt.Errorf("%s: %w; log:\n%s", p.name, p.err, p.log))
		} else if !p.log.contains(drainedLine) {
			errs = append(errs, fmt.Errorf("%s exited without printing %q; log:\n%s", p.name, drainedLine, p.log))
		}
	}
	return errors.Join(errs...)
}

// close kills whatever still runs, waits for it and removes the temp
// dir. It is safe after stop and on every error path.
func (s *supervisor) close() {
	for _, p := range s.procs {
		if !p.exited() {
			_ = p.cmd.Process.Kill()
			<-p.done
		}
	}
	_ = os.RemoveAll(s.dir)
}
