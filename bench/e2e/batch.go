package main

import "time"

// What the two batch workloads share: a pass is one run-to-completion
// child, the measured phase is a row of passes, and the pass is the unit
// both of latency and of the throughput median.

// pass is the kernel's and the clock's account of one child.
type pass struct {
	wall, cpu time.Duration
	rss       int64
}

// timePass runs a child to completion and accounts for it.
func timePass(run func() (*proc, error)) (pass, *proc, error) {
	begin := time.Now()
	p, err := run()
	if err != nil {
		return pass{}, nil, err
	}
	ps := pass{wall: time.Since(begin)}
	ps.rss, ps.cpu = p.usage()
	return ps, p, nil
}

// batchPhase runs n passes one after another and accounts for the
// harness itself over the phase.
func batchPhase(n int, run func(i int) (pass, error)) (passes []pass, self phaseStats, err error) {
	cpu0, begin := selfCPU(), time.Now()
	for i := 0; i < n; i++ {
		ps, err := run(i)
		if err != nil {
			return nil, phaseStats{}, err
		}
		passes = append(passes, ps)
	}
	return passes, phaseStats{Wall: time.Since(begin), CPU: selfCPU() - cpu0}, nil
}

// batchMetrics fills in what a batch workload reads off its passes, each
// of which handled units domains. It returns the median pass in ms.
func batchMetrics(res *runResult, passes []pass, units int, setup time.Duration, self phaseStats, q quality) float64 {
	var walls, rates []float64
	var cpu time.Duration
	var rss int64
	for _, p := range passes {
		walls = append(walls, float64(p.wall)/1e6)
		rates = append(rates, float64(units)/p.wall.Seconds())
		cpu += p.cpu
		if p.rss > rss {
			rss = p.rss
		}
	}
	walls = sortedCopy(walls)
	res.E2E["setup_s"] = metric{setup.Seconds(), "s"}
	res.E2E["domains_per_s"] = metric{median(rates), "1/s"}
	res.E2E["latency_p50_ms"] = metric{quantile(walls, 0.5), "ms"}
	res.E2E["latency_p90_ms"] = metric{quantile(walls, 0.9), "ms"}
	res.E2E["cpu_us_per_domain"] = metric{float64(cpu.Microseconds()) / float64(units*len(passes)), "us"}
	res.E2E["peak_rss_mb"] = metric{float64(rss) / 1e6, "MB"}
	res.E2E["attack_recall"] = metric{q.recall(), "share"}
	res.E2E["benign_pass_share"] = metric{1 - q.benignShare(), "share"}

	res.Layer["client.latency_p99_ms"] = metric{quantile(walls, 0.99), "ms"}
	res.Layer["client.latency_p999_ms"] = metric{quantile(walls, 0.999), "ms"}
	res.Layer["client.cpu_us_per_request"] = metric{float64(self.CPU.Microseconds()) / float64(len(passes)), "us"}
	res.Layer["client.phase_s"] = metric{self.Wall.Seconds(), "s"}
	res.Layer["client.segment_spread"] = metric{relSpread(rates), "share"}
	res.Extra["client.latency_samples"] = metric{float64(len(passes)), "count"}
	qualityExtras(res, q)
	return quantile(walls, 0.5)
}
