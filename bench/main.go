// Command bench is the repository's benchmark: five closed-loop workloads
// over the whole SEMPLAR stack, end-to-end metrics from an untraced timed
// window and per-layer metrics from a second, traced one. README.md in this
// directory defines every metric and says why each workload exists;
// BENCHMARK.json at the repository root fixes names, units and bounds.
//
//	go run ./bench                       every workload, both passes, human table
//	go run ./bench -workload W           one workload, both passes
//	go run ./bench -out r.json -repeat 5 five runs per workload, as a result file
//	go run ./bench -compare a.json b.json
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//
// The last form is the driver's: one pass of one workload, and one JSON
// object as the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// specPath is where the benchmark's definition lives, relative to the
// repository root the command is run from.
const specPath = "BENCHMARK.json"

// tracedWindow is the length of the traced window, in seconds: the same on
// every commit, so per-layer numbers of two result files compare.
const tracedWindow = 4

// spec is the benchmark's definition: metric names, units, directions and
// regression bounds. loadSpec is the one place it is put together.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
	// Absolute are the two end-to-end metrics BENCHMARK.json cannot carry.
	Absolute []metricSpec `json:"-"`
}

// metricSpec is one metric's definition. Bound is a share of the base
// median, or a difference on the metric's own scale when Absolute is set.
type metricSpec struct {
	Name     string  `json:"name"`
	Unit     string  `json:"unit"`
	Better   string  `json:"better"`
	Bound    float64 `json:"bound,omitempty"`
	Absolute bool    `json:"-"`
}

// loadSpec reads BENCHMARK.json and adds the two end-to-end metrics its
// schema has no room for — every metric there is reported on every workload,
// is never 0 and has a relative bound: overlap_efficiency exists on ckpt_wan
// only and may drop by 0.05, failed_ops_share is 0 on a healthy run and may
// not rise at all.
func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s.Absolute = []metricSpec{
		{Name: "overlap_efficiency", Unit: "ratio", Better: "higher", Bound: 0.05, Absolute: true},
		{Name: "failed_ops_share", Unit: "ratio", Better: "lower", Bound: 0, Absolute: true},
	}
	return &s, nil
}

// judged lists every end-to-end metric -compare rules on, in table order.
func (s *spec) judged() []metricSpec {
	return append(append([]metricSpec(nil), s.EndToEnd...), s.Absolute...)
}

// settings are the knobs of one invocation, the same for every workload.
type settings struct {
	seed         int64
	seconds      float64 // untraced timed window
	traceSeconds float64 // traced timed window
	setupReps    int     // set-ups per run; setup_s is their median
	smoke        bool
	traceOut     string
}

// run is everything one (workload, seed) produced.
type run struct {
	Seed     int64    `json:"seed"`
	Ops      int      `json:"ops"`
	Failed   int      `json:"failed"`
	EndToEnd metrics  `json:"end_to_end,omitempty"`
	PerLayer metrics  `json:"per_layer,omitempty"`
	Problems []string `json:"problems,omitempty"`
	Notes    []string `json:"notes,omitempty"`
	recon    []reconstruction
}

func (r *run) ok() bool { return r.Failed == 0 && len(r.Problems) == 0 }

// untraced runs the end-to-end pass: cfg.setupReps set-ups (all but the
// last torn down at once), one timed window, verification and hygiene. The
// T_io calibration samples of all the set-ups are pooled: overlap_efficiency
// moves by 0.05 for every millisecond T_io is off.
func untraced(w *workload, cfg settings, seconds float64) (*pass, []float64, error) {
	var setups []float64
	var cal [2][]int64
	for i := 1; ; i++ {
		p := newPass(w, cfg.seed, false, cfg.smoke)
		if err := p.setup(); err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, float64(p.setupNs)/1e9)
		for k := range cal {
			cal[k] = append(cal[k], p.cal[k]...)
		}
		if i < cfg.setupReps {
			p.teardown()
			continue
		}
		p.tio = [2]int64{medianInt(cal[0]), medianInt(cal[1])}
		p.window(time.Duration(seconds * float64(time.Second)))
		p.finish()
		return p, setups, nil
	}
}

func (p *pass) problems() []string {
	out := append([]string(nil), p.hygiene...)
	if p.verifyErr != nil {
		out = append(out, "verification: "+p.verifyErr.Error())
	}
	return out
}

// endToEndRun is the contract's --trace 0: every end-to-end metric. It
// also returns the pass, which a traced run can use as its reference.
func endToEndRun(w *workload, cfg settings) (*run, *pass, error) {
	p, setups, err := untraced(w, cfg, cfg.seconds)
	if err != nil {
		return nil, nil, err
	}
	r := &run{Seed: cfg.seed, Ops: len(p.samples), Failed: p.failedOps(), Problems: p.problems()}
	r.EndToEnd = p.endToEnd()
	r.EndToEnd["setup_s"] = metric{Value: medianFloat(setups), Unit: "s", Samples: len(setups)}
	return r, p, nil
}

// perLayerRun is the contract's --trace 1: the traced window with the probes
// installed, held against an untraced reference pass of the same workload
// and seed (process-wide figures and the overhead baseline). Without one it
// first runs its own, cfg.seconds long.
func perLayerRun(w *workload, cfg settings, ref *pass) (*run, error) {
	r := &run{Seed: cfg.seed}
	if ref == nil {
		one := cfg
		one.setupReps = 1
		var err error
		if ref, _, err = untraced(w, one, cfg.seconds); err != nil {
			return nil, err
		}
		r.Ops, r.Failed, r.Problems = len(ref.samples), ref.failedOps(), ref.problems()
	}
	p := newPass(w, cfg.seed, true, cfg.smoke)
	if err := p.setup(); err != nil {
		return nil, fmt.Errorf("%s: traced set-up: %w", w.name, err)
	}
	p.tio = ref.tio // the blocking cost without the probes, from more samples
	p.window(time.Duration(cfg.traceSeconds * float64(time.Second)))
	p.finish()
	an := p.analyze()
	r.Ops += len(p.samples)
	r.Failed += p.failedOps()
	r.Problems = append(r.Problems, p.problems()...)
	r.PerLayer = p.perLayer(an, ref)
	if w.depth1 {
		r.recon = p.reconstruct(an)
	}
	if cfg.traceOut != "" {
		if err := p.writeTrace(cfg.traceOut); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// fullRun is one workload as `go run ./bench` runs it: the end-to-end pass,
// then the traced pass with the first as its reference.
func fullRun(w *workload, cfg settings) (*run, error) {
	r, p, err := endToEndRun(w, cfg)
	if err != nil {
		return nil, err
	}
	if w.async {
		var compute []int64
		for _, st := range p.steps {
			compute = append(compute, st.compute)
		}
		r.Notes = append(r.Notes, fmt.Sprintf("kernel median %.2f ms per step (%.2f ms of thread CPU, kept out of proc.cpu_us_per_op); T_io calibrated at %.2f ms read, %.2f ms write over %d set-ups",
			float64(medianInt(compute))/1e6, float64(p.kernelNs)/1e6/float64(len(p.steps)), float64(p.tio[0])/1e6, float64(p.tio[1])/1e6, cfg.setupReps))
	}
	traced, err := perLayerRun(w, cfg, p)
	if err != nil {
		return nil, err
	}
	r.Failed += traced.Failed
	r.Problems = append(r.Problems, traced.Problems...)
	r.PerLayer, r.recon = traced.PerLayer, traced.recon
	return r, nil
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Meta      meta             `json:"meta"`
	Workloads []workloadResult `json:"workloads"`
}

// meta records what a result was measured on.
type meta struct {
	Commit       string  `json:"commit"`
	Go           string  `json:"go"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"nproc"`
	Seed         int64   `json:"seed"`
	Repeat       int     `json:"repeat"`
	Seconds      float64 `json:"window_seconds"`
	TraceSeconds float64 `json:"trace_window_seconds"`
	SetupReps    int     `json:"setups_per_run"`
}

type workloadResult struct {
	Name           string  `json:"name"`
	Transport      string  `json:"transport"`
	GOMAXPROCS     int     `json:"gomaxprocs"` // the workload's own where it sets one
	TailPercentile float64 `json:"tail_percentile"`
	Runs           []*run  `json:"runs"`
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func printMetrics(title string, m metrics, order []metricSpec) {
	fmt.Printf("  %s\n", title)
	seen := map[string]bool{}
	line := func(name string) {
		v, ok := m[name]
		if !ok || seen[name] {
			return
		}
		seen[name] = true
		extra := ""
		if v.Samples > 0 {
			extra = fmt.Sprintf("  (n=%d)", v.Samples)
		}
		fmt.Printf("    %-44s %14.4f %-6s%s\n", name, v.Value, v.Unit, extra)
	}
	for _, s := range order {
		line(s.Name)
	}
	var rest []string
	for name := range m {
		rest = append(rest, name)
	}
	sort.Strings(rest)
	for _, name := range rest {
		line(name)
	}
}

func printRun(w *workload, r *run, sp *spec) {
	fmt.Printf("\n== %s  [%s, seed %d, tail = p%g]\n   %s\n", w.name, w.transport, r.Seed, w.tailPct, w.env)
	printMetrics("end to end (untraced)", r.EndToEnd, sp.judged())
	for _, n := range r.Notes {
		fmt.Printf("    %s\n", n)
	}
	for _, kind := range []string{"read", "write"} {
		if v, ok := r.EndToEnd[kind+"_tail_us"]; ok {
			fmt.Printf("    %s tail: p%g fixed; %d samples, the ≥%d-beyond rule would pick p%g\n",
				kind, w.tailPct, v.Samples, minBeyond, tailRule(v.Samples))
		}
	}
	printMetrics("per layer (traced)", r.PerLayer, sp.PerLayer)
	for _, rc := range r.recon {
		p50 := r.EndToEnd[rc.Kind+"_p50_us"].Value
		fmt.Printf("    reconstruct %-5s mpiio %.1f + queue %.1f + driver %.1f + transport %.1f + server %.1f + storage %.1f = %.1f us; traced p50 %.1f, untraced p50 %.1f (%+.1f%%)\n",
			rc.Kind, rc.MpiioSelf, rc.Queue, rc.DriverSelf, rc.Transport, rc.ServerSelf, rc.Storage,
			rc.Sum, rc.TracedP50, p50, 100*(ratio(rc.Sum, p50)-1))
	}
	for _, pr := range r.Problems {
		fmt.Printf("  PROBLEM: %s\n", pr)
	}
	if r.Failed > 0 {
		fmt.Printf("  PROBLEM: %d of %d ops failed\n", r.Failed, r.Ops)
	}
}

// contractOutput prints the one JSON object the driver reads. Metrics the
// workload does not have (the engine's on a blocking workload, say) are
// reported as 0 there, because the driver wants every name on every run; the
// human table omits them instead.
func contractOutput(r *run, m metrics, names []metricSpec) {
	out := struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{Correct: r.ok(), Attempted: r.Ops, Failed: r.Failed, Metrics: metrics{}}
	for _, s := range names {
		v := m[s.Name]
		out.Metrics[s.Name] = metric{Value: v.Value, Unit: s.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func main() {
	var (
		name     = flag.String("workload", "", "run this workload only (default: all five)")
		seed     = flag.Int64("seed", 1, "seed of the op sequence and payload bytes")
		seconds  = flag.Float64("seconds", 20, "timed window per workload, seconds")
		trace    = flag.Int("trace", -1, "driver mode, needs -workload: run one pass and print one JSON object; 0 = end-to-end metrics, 1 = per-layer metrics (default: both passes, as tables)")
		repeat   = flag.Int("repeat", 1, "runs per workload, on seeds seed, seed+1, ...")
		out      = flag.String("out", "", "write a result file for -compare")
		traceOut = flag.String("trace-out", "", "write the traced pass's spans as Chrome trace JSON; needs -workload")
		smoke    = flag.Bool("smoke", false, "tiny windows and one set-up per run: proves the harness, measures nothing")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()

	sp, err := loadSpec(specPath)
	if err != nil {
		fatal(fmt.Errorf("reading the benchmark definition: %w (run from the repository root)", err))
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), sp))
	}

	cfg := settings{seed: *seed, seconds: *seconds, traceSeconds: tracedWindow, setupReps: 5, smoke: *smoke, traceOut: *traceOut}
	if *smoke {
		cfg.seconds, cfg.traceSeconds, cfg.setupReps = 0.15, 0.15, 1
	}
	todo := workloads()
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		todo = []*workload{w}
	} else if *trace >= 0 || *traceOut != "" {
		fatal(fmt.Errorf("-trace and -trace-out take one workload: name it with -workload"))
	}

	if *trace >= 0 {
		w := todo[0]
		var r *run
		if *trace == 0 {
			if r, _, err = endToEndRun(w, cfg); err == nil {
				contractOutput(r, r.EndToEnd, sp.EndToEnd)
			}
		} else {
			// The run measures for -seconds in all: the traced window, and
			// before it the untraced reference window.
			if !*smoke {
				if cfg.seconds <= tracedWindow {
					fatal(fmt.Errorf("-trace 1 needs -seconds above the %d s traced window", tracedWindow))
				}
				cfg.seconds -= tracedWindow
			}
			if r, err = perLayerRun(w, cfg, nil); err == nil {
				contractOutput(r, r.PerLayer, sp.PerLayer)
			}
		}
		if err != nil {
			fatal(err)
		}
		for _, pr := range r.Problems {
			fmt.Fprintln(os.Stderr, "bench: PROBLEM:", pr)
		}
		if !r.ok() {
			os.Exit(1)
		}
		return
	}

	file := resultFile{Meta: meta{
		Commit: commit(), Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: *seed, Repeat: *repeat, Seconds: cfg.seconds, TraceSeconds: cfg.traceSeconds, SetupReps: cfg.setupReps,
	}}
	fmt.Printf("bench: commit %s, %s, GOMAXPROCS %d, nproc %d, seed %d, windows %gs untraced + %gs traced, %d set-ups per run\n",
		file.Meta.Commit, file.Meta.Go, file.Meta.GOMAXPROCS, file.Meta.NumCPU, *seed, cfg.seconds, cfg.traceSeconds, cfg.setupReps)
	fmt.Println("bench: traffic crosses the host's loopback TCP or the in-process netsim simulator only — never a real link")
	failed := false
	for _, w := range todo {
		wr := workloadResult{Name: w.name, Transport: w.transport, GOMAXPROCS: w.procs, TailPercentile: w.tailPct}
		if wr.GOMAXPROCS == 0 {
			wr.GOMAXPROCS = file.Meta.GOMAXPROCS
		}
		for i := 0; i < *repeat; i++ {
			one := cfg
			one.seed = *seed + int64(i)
			r, err := fullRun(w, one)
			if err != nil {
				fatal(err)
			}
			printRun(w, r, sp)
			wr.Runs = append(wr.Runs, r)
			failed = failed || !r.ok()
		}
		file.Workloads = append(file.Workloads, wr)
	}
	if *out != "" {
		raw, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if failed {
		fmt.Println("\nbench: FAILED — verification or hygiene problems above")
		os.Exit(1)
	}
}
