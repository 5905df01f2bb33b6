package core

import (
	"context"

	"idnlab/internal/pipeline"
)

// runSteps is this package's one bounded scheduler: independent steps
// go through a pipeline engine, workers wide (GOMAXPROCS when zero), and
// each step's result reaches sink in step order whichever worker produced
// it. The first error aborts the run; every goroutine has exited when
// runSteps returns. Assemble's store builders, Results' aggregates and
// RunContext's report sections are all scheduled here.
func runSteps[T, R any](ctx context.Context, stage string, workers int, steps []T,
	step func(T) (R, error), sink func(R) error) (pipeline.Metrics, error) {
	eng := pipeline.New(
		pipeline.Config{Stage: stage, Workers: workers, Batch: 1},
		func() struct{} { return struct{}{} },
		func(_ struct{}, s T) (R, bool, error) {
			r, err := step(s)
			return r, err == nil, err
		})
	err := eng.Stream(ctx, steps, sink)
	return eng.Metrics(), err
}

// runAll schedules steps that keep their own results.
func runAll(ctx context.Context, stage string, workers int, steps []func() error) (pipeline.Metrics, error) {
	return runSteps(ctx, stage, workers, steps,
		func(step func() error) (struct{}, error) { return struct{}{}, step() },
		func(struct{}) error { return nil })
}
