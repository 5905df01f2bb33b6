// Package cli is the scaffold every command in cmd/ hangs off: the
// error line and exit code, the signal context, the flag checks several
// tools share, and the boot and drain sequence of the daemons. A
// command's main is the flags it owns plus a call into the package it
// fronts.
package cli

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"

	"idnlab/internal/brands"
	"idnlab/internal/candidx"
	"idnlab/internal/feat"
)

// Main runs a command under a context that SIGINT or SIGTERM cancels.
// An error is printed as "name: err" on stderr and exits 1.
func Main(name string, run func(ctx context.Context) error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx)
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}
}

// CheckScale rejects a -scale below 1 for the tools that generate the
// universe: zonegen.Config reads a non-positive divisor as "use the
// default", which is not what someone who typed one asked for.
func CheckScale(scale int) error {
	if scale < 1 {
		return fmt.Errorf("-scale must be at least 1 (1 = paper scale), got %d", scale)
	}
	return nil
}

// CheckBrands rejects a brand-catalog depth (-brands, or idnindex build
// -top) outside 1..len(brands.List()): brands.TopK would clamp it, and
// the tool would defend a catalog other than the one its flag names.
func CheckBrands(k int) error {
	if n := len(brands.List()); k < 1 || k > n {
		return fmt.Errorf("brand count must be in 1..%d (the brand list), got %d", n, k)
	}
	return nil
}

// ServeUntilDrained runs a daemon's listener from boot to clean exit.
// serve is Server.Run or Gateway.Run: it reports the bound address
// through ready, serves until ctx is cancelled, drains and returns.
// up runs once the listener is bound — it prints the "listening on"
// line and starts whatever needs the address. After a clean drain the
// "drained cleanly" line is printed. Both lines are what
// internal/proctest and bench/e2e wait for.
func ServeUntilDrained(ctx context.Context, name, listen string,
	serve func(ctx context.Context, addr string, ready chan<- net.Addr) error, up func(net.Addr)) error {
	ready := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() { errc <- serve(ctx, listen, ready) }()
	select {
	case addr := <-ready:
		up(addr)
	case err := <-errc:
		return err
	}
	if err := <-errc; err != nil {
		return err
	}
	fmt.Printf("%s: drained cleanly\n", name)
	return nil
}

// LoadDetector loads the two optional files a detector daemon takes —
// the candidate index built by idnindex and the statistical model built
// by idnstat train — and prints one line for each. An empty path
// leaves its result nil.
func LoadDetector(name, indexPath, statPath string) (*candidx.Index, *feat.Model, error) {
	var ix *candidx.Index
	if indexPath != "" {
		var err error
		if ix, err = candidx.LoadFile(indexPath); err != nil {
			return nil, nil, fmt.Errorf("load index: %w", err)
		}
		fmt.Printf("%s: index %s: %d brands, %d keys, fingerprint %016x\n",
			name, indexPath, len(ix.Brands()), ix.KeyCount(), ix.Fingerprint())
	}
	var stat *feat.Model
	if statPath != "" {
		var err error
		if stat, err = feat.LoadFile(statPath); err != nil {
			return nil, nil, fmt.Errorf("load stat model: %w", err)
		}
		fmt.Printf("%s: stat model %s: seed %d, %d bigrams, flag %.3f, prefilter %.3f\n",
			name, statPath, stat.Seed(), stat.BigramCount(), stat.FlagRaw(), stat.PrefilterRaw())
	}
	return ix, stat, nil
}
