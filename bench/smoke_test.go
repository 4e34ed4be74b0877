package main

import (
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload end to end with tiny windows: set-up, both
// passes, byte verification and the hygiene checks must all come out clean,
// and the metrics must be exactly the ones BENCHMARK.json names, in its
// units. It proves the harness; it measures nothing.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, m := range append(sp.judged(), sp.PerLayer...) {
		units[m.Name] = m.Unit
	}
	if len(sp.Workloads) != len(workloads()) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads()))
	}

	cfg := settings{seed: 42, seconds: 0.15, traceSeconds: 0.15, setupReps: 1, smoke: true}
	seen := map[string]bool{}
	for i, w := range workloads() {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the benchmark", i, sp.Workloads[i].Name, w.name)
		}
		if w.opts.streams*max(1, w.opts.fedWidth) > 2 {
			t.Errorf("%s: more than two connections", w.name)
		}
		r, err := fullRun(w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !r.ok() {
			t.Errorf("%s: %d of %d ops failed; problems: %v", w.name, r.Failed, r.Ops, r.Problems)
		}
		if r.Ops < 2 {
			t.Errorf("%s: only %d ops ran", w.name, r.Ops)
		}
		for _, m := range []metrics{r.EndToEnd, r.PerLayer} {
			for name, v := range m {
				seen[name] = true
				if unit, ok := units[name]; !ok {
					t.Errorf("%s: metric %s is not in BENCHMARK.json", w.name, name)
				} else if unit != v.Unit {
					t.Errorf("%s: %s is in %q here and %q in BENCHMARK.json", w.name, name, v.Unit, unit)
				}
			}
		}
		for _, name := range []string{"mpiio.phys_read_bytes_per_user_byte", "mpiio.phys_write_bytes_per_user_byte"} {
			if v := r.PerLayer[name].Value; w.name != "strided_wan" && v != 1 {
				t.Errorf("%s: %s = %v on a contiguous workload, want exactly 1", w.name, name, v)
			}
		}
		for _, e := range sp.EndToEnd {
			if _, ok := r.EndToEnd[e.Name]; !ok {
				t.Errorf("%s: end-to-end metric %s is missing", w.name, e.Name)
			}
		}
	}
	for name := range units {
		if !seen[name] {
			t.Errorf("no workload reports %s", name)
		}
	}
}
