package core

import (
	"context"

	"idnlab/internal/pipeline"
)

// runAll is this package's one bounded scheduler: independent steps go
// through a pipeline engine, workers wide (GOMAXPROCS when zero), and
// each step keeps its own result. The first error aborts the run; every
// goroutine has exited when runAll returns. Assemble's store builders,
// Results' aggregates and RunContext's report sections are all scheduled
// here.
func runAll(ctx context.Context, stage string, workers int, steps []func() error) (pipeline.Metrics, error) {
	eng := pipeline.New(pipeline.Config{Stage: stage, Workers: workers, Batch: 1},
		func() struct{} { return struct{}{} })
	err := eng.Run(ctx, len(steps), func(_ struct{}, i int) error { return steps[i]() })
	return eng.Metrics(), err
}
