package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

func readResult(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// series is one metric's values over the runs of a workload.
func series(w *workloadResult, name string) []float64 {
	var v []float64
	for _, r := range w.Runs {
		if m, ok := r.EndToEnd[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// spread is the interquartile range over the median — the driver's
// repeatability measure. With fewer than four runs quartiles mean little,
// so it falls back to the full range.
func spread(v []float64) float64 {
	med := medianFloat(v)
	if len(v) < 2 || med == 0 {
		return 0
	}
	if len(v) < 4 {
		return (slices.Max(v) - slices.Min(v)) / med
	}
	lo, hi := quartiles(v)
	return (hi - lo) / med
}

// verdict judges new against base under m's bound. worse is how far new is
// on the wrong side of base: a share of base for a relative bound, a
// difference for an absolute one. A metric one side has and the other lacks
// is "missing", which fails the comparison like a regression: the new side
// lost a code path, or the two files are not of the same benchmark.
func verdict(base, new []float64, m metricSpec) (status string, worse, noise float64) {
	if len(base) == 0 || len(new) == 0 {
		return "missing", 0, 0
	}
	b, n := medianFloat(base), medianFloat(new)
	worse = n - b
	if m.Better == "higher" {
		worse = b - n
	}
	noise = spread(base)
	if s := spread(new); s > noise {
		noise = s
	}
	if m.Absolute {
		noise *= b // the spread, too, on the metric's own scale
	} else {
		worse = ratio(worse, b)
	}
	switch {
	case noise > m.Bound && m.Bound > 0:
		return "unresolved", worse, noise
	case worse > m.Bound:
		return "regressed", worse, noise
	}
	return "ok", worse, noise
}

// compareFiles prints one row per (end-to-end metric, workload) of the base
// file and returns the process exit code: 1 if anything regressed or went
// missing.
func compareFiles(basePath, newPath string, sp *spec) int {
	base, err := readResult(basePath)
	if err != nil {
		fatal(err)
	}
	next, err := readResult(newPath)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("base %s (commit %s, seed %d, %d runs)  vs  new %s (commit %s, seed %d, %d runs)\n",
		basePath, base.Meta.Commit, base.Meta.Seed, base.Meta.Repeat,
		newPath, next.Meta.Commit, next.Meta.Seed, next.Meta.Repeat)
	fmt.Printf("%-14s %-20s %14s %14s %8s %9s %8s %7s  %s\n",
		"workload", "metric", "base median", "new median", "new/base", "worse by", "spread", "bound", "verdict")
	counts := map[string]int{}
	for i := range base.Workloads {
		bw := &base.Workloads[i]
		nw := &workloadResult{} // a workload the new file lacks has no metrics
		for j := range next.Workloads {
			if next.Workloads[j].Name == bw.Name {
				nw = &next.Workloads[j]
			}
		}
		for _, m := range sp.judged() {
			b, n := series(bw, m.Name), series(nw, m.Name)
			if len(b) == 0 && len(n) == 0 {
				continue // the workload does not have this metric
			}
			status, worse, noise := verdict(b, n, m)
			counts[status]++
			unit, scale := "%", 100.0
			if m.Absolute {
				unit, scale = "", 1
			}
			fmt.Printf("%-14s %-20s %14.4f %14.4f %8.3f %8.2f%s %7.2f%s %6.2f%s  %s\n",
				bw.Name, m.Name, medianFloat(b), medianFloat(n), ratio(medianFloat(n), medianFloat(b)),
				scale*worse, unit, scale*noise, unit, scale*m.Bound, unit, status)
		}
	}
	fmt.Printf("%d ok, %d regressed, %d missing, %d unresolved (spread wider than the bound)\n",
		counts["ok"], counts["regressed"], counts["missing"], counts["unresolved"])
	if counts["regressed"]+counts["missing"] > 0 {
		return 1
	}
	return 0
}
