package core

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"
)

// studyBenchWorkerCounts is {1, 4, GOMAXPROCS} with duplicates removed:
// workers=1 is the sequential reference, workers=4 shows scheduler
// overhead when oversubscribed, and GOMAXPROCS is the headline number.
func studyBenchWorkerCounts() []int {
	counts := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		counts = append(counts, p)
	}
	return counts
}

// BenchmarkStudyRun times the full offline study — every table and figure
// of the paper — over the reference corpus (seed 7, scale 1/2000, the
// golden-test universe). A fresh Dataset and Study are assembled outside
// the timer for every iteration, so cross-run memoization (the corpus
// index, the cached scans) cannot leak between iterations: each timed run
// pays the full cost of a cold report, exactly what `idnreport` pays.
func BenchmarkStudyRun(b *testing.B) {
	for _, workers := range studyBenchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ds, err := NewDefaultDataset(7, 2000)
				if err != nil {
					b.Fatal(err)
				}
				st := NewStudy(ds)
				st.ScanWorkers = workers
				b.StartTimer()
				if err := st.RunContext(context.Background(), io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
