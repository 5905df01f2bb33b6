package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// A/A self-check: two sets of runs of the same build, alternating, judged
// by the benchmark's own bounds. If two sets of the same code disagree by
// more than a metric's bound, that bound cannot tell a regression from
// noise.

// benchmarkFile is the part of BENCHMARK.json the check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBounds(root string) (map[string]float64, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := make(map[string]float64)
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// runAA runs k rounds of (set A, set B) over names and compares the sets'
// medians for every end-to-end metric.
func runAA(e *env, names []string, k int) error {
	bounds, err := readBounds(e.root)
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for round := 0; round < k; round++ {
		for set := 0; set < 2; set++ {
			for _, name := range names {
				res, err := runWorkload(e, name)
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				if res.Failed > 0 {
					return fmt.Errorf("%s: %d of %d operations failed: %v", name, res.Failed, res.Attempted, res.Failures)
				}
				for m, v := range res.E2E {
					sets[set][key{name, m}] = append(sets[set][key{name, m}], v.Value)
				}
				fmt.Printf("aa round %d set %c %s done\n", round+1, 'A'+set, name)
			}
		}
	}
	over := 0
	fmt.Println("workload metric | A: q1 median q3 | B: q1 median q3 | gap bound")
	for _, name := range names {
		for _, spec := range endToEnd {
			a1, a2, a3 := quartiles(sets[0][key{name, spec.Name}])
			b1, b2, b3 := quartiles(sets[1][key{name, spec.Name}])
			gap := math.Abs(safeDiv(b2-a2, a2))
			verdict := ""
			if gap > bounds[spec.Name] {
				verdict = "  OVER"
				over++
			}
			fmt.Printf("%s %s | %.6g %.6g %.6g | %.6g %.6g %.6g | %.4f %.4f%s\n",
				name, spec.Name, a1, a2, a3, b1, b2, b3, gap, bounds[spec.Name], verdict)
		}
	}
	if over > 0 {
		return fmt.Errorf("A/A: %d metrics differ between two sets of the same build by more than their bound", over)
	}
	fmt.Println("A/A ok")
	return nil
}
