// Command letbench is the repository's end-to-end benchmark. It drives one
// workload through the public entry points of the solver stack, checks
// every result with an oracle independent of the solver that produced it,
// and prints one JSON line of metrics.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash letbench/run.sh --workload milp-prove --seed 1 --seconds 30 --trace 0
//
// Workloads: milp-prove (closed loop, one client, the `letdma schedule
// -solver milp` path), waters-eval (closed loop, one client, the paper's
// Section VII artifacts), service-mix (open loop into an in-process letdmad
// server). With --trace 0 the last line carries the end-to-end metrics of
// an untraced run; with --trace 1 it carries the per-layer metrics of a
// traced replay of the same ops, and the spans are written as Chrome
// trace-event JSON under .bench_build/traces. A human-readable report,
// including the workload shares, goes to standard error. NOTES.md records
// the design decisions and known costs.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// minOps is the smallest sample a run reports: the 90th percentile then
// has at least ten samples beyond it.
const minOps = 100

// setupRepeats is how often a run repeats its set-up; setup_s is the
// median.
const setupRepeats = 5

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (BENCHMARK.json end_to_end).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"ok_frac", "frac"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run (BENCHMARK.json per_layer).
// Every workload reports all of them; a layer the workload never calls
// reads 0.
var perLayer = []metricDef{
	{"let.analyze_s", "s"},
	{"rta.gammas_s", "s"},
	{"combopt.solve_s", "s"},
	{"combopt.calls", "count"},
	{"letopt.overhead_s", "s"},
	{"letopt.model_vars", "count"},
	{"letopt.model_cons", "count"},
	{"milp.search_s", "s"},
	{"milp.nodes", "count"},
	{"milp.lp_iters", "count"},
	{"milp.cold_solves", "count"},
	{"milp.warm_hits", "count"},
	{"milp.warm_expands", "count"},
	{"milp.refactorizations", "count"},
	{"milp.ftran_nnz_per_solve", "count"},
	{"milp.eta_nnz", "count"},
	{"milp.lu_nnz", "count"},
	{"milp.lp_iters_per_s", "1/s"},
	{"milp.proved_frac", "frac"},
	{"milp.numerical_stops", "count"},
	{"dma.latency_s", "s"},
	{"sim.run_s", "s"},
	{"sim.jobs", "count"},
	{"sim.jobs_per_s", "1/s"},
	{"experiments.fig2_s", "s"},
	{"experiments.table1_s", "s"},
	{"experiments.sensitivity_s", "s"},
	{"experiments.robustness_s", "s"},
	{"experiments.render_s", "s"},
	{"serve.submit_p50_ms", "ms"},
	{"serve.submit_p90_ms", "ms"},
	{"serve.submit_drift", "ratio"},
	{"serve.solve_s", "s"},
	{"serve.wait_s", "s"},
	{"serve.cache_hit_frac", "frac"},
	{"serve.retries", "count"},
	{"serve.rejected", "count"},
	{"serve.certified_frac", "frac"},
	{"serve.journal_bytes_per_job", "bytes"},
	{"serve.replay_s", "s"},
	{"bench.gen_lag_p90_ms", "ms"},
	{"bench.trace_overhead_frac", "frac"},
	{"bench.span_coverage_frac", "frac"},
}

// opRecord is the outcome of one op.
type opRecord struct {
	kind    string
	latency time.Duration
	// failed: the op returned an error, a time-limit or deadline stop, a
	// 429, or a job that ended done with an error. Counted, not fatal.
	failed error
	// wrong: the result contradicts the oracle. Any wrong op fails the run.
	wrong error
}

// verdict is what an op's check returns once the clock has stopped.
type verdict struct{ failed, wrong error }

// runStats are the measurements of one pass over a workload's ops.
type runStats struct {
	recs []opRecord
	wall time.Duration
	cpu  time.Duration
	// layers holds the per-layer metrics a workload derives from its own
	// counters and spans (traced pass only).
	layers map[string]float64
}

// workload is one benchmark workload. prepare runs once, off the clock,
// for fixtures that stand for earlier history. setup is called
// setupRepeats times; the state of the last call is measured, and in a
// traced run that call gets a tracer whose spans count towards the
// per-layer metrics. measure runs one pass: for maxOps == 0 it runs for
// budget, otherwise exactly maxOps ops (the traced replay of an untraced
// pass).
type workload interface {
	prepare(seed int64) error
	setup(seed int64, tr *tracer) error
	measure(budget time.Duration, maxOps int, tr *tracer) (*runStats, error)
	shares(recs []opRecord) []string
	close() error
}

func main() {
	name := flag.String("workload", "", "milp-prove | waters-eval | service-mix")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "seconds to measure, rounded up to whole passes, rounds or cycles")
	traceOn := flag.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced replay")
	flag.Parse()
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "letbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *traceOn == 1); err != nil {
		fmt.Fprintln(os.Stderr, "letbench:", err)
		os.Exit(1)
	}
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "milp-prove":
		return &milpProve{}, nil
	case "waters-eval":
		return &watersEval{}, nil
	case "service-mix":
		return &serviceMix{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func run(name string, seed int64, budget time.Duration, traced bool) error {
	runtime.GOMAXPROCS(runtime.NumCPU())
	w, err := newWorkload(name)
	if err != nil {
		return err
	}
	defer func() {
		if err := w.close(); err != nil {
			fmt.Fprintln(os.Stderr, "letbench: close:", err)
		}
	}()

	if err := w.prepare(seed); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	var setups []time.Duration
	for i := 0; i < setupRepeats; i++ {
		var tr *tracer
		if traced && i == setupRepeats-1 {
			tr = newTracer()
		}
		start := time.Now()
		if err := w.setup(seed, tr); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start))
	}

	runtime.GC() // start the measured pass without set-up garbage
	plain, err := w.measure(budget, 0, nil)
	if err != nil {
		return err
	}
	res := result{Attempted: len(plain.recs), Metrics: map[string]metric{}}
	wrong := report(name, "untraced", plain, w.shares(plain.recs))
	for _, r := range plain.recs {
		if r.failed != nil || r.wrong != nil {
			res.Failed++
		}
	}

	if !traced {
		lat := latencies(plain.recs)
		ok := res.Attempted - res.Failed
		vals := map[string]float64{
			"setup_s":          median(setups).Seconds(),
			"latency_p50_ms":   ms(quantile(lat, 0.5)),
			"latency_p90_ms":   ms(quantile(lat, 0.9)),
			"throughput_per_s": float64(ok) / plain.wall.Seconds(),
			"ok_frac":          float64(ok) / float64(res.Attempted),
			"cpu_ms_per_op":    ms(plain.cpu) / float64(max(len(plain.recs), 1)),
			"peak_rss_mb":      peakRSSMB(),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
		fmt.Fprintf(os.Stderr, "%s: %d ops, setup_s samples %v\n", name, len(plain.recs), setups)
	} else {
		tr := newTracer()
		tracedRun, err := w.measure(budget, len(plain.recs), tr)
		if err != nil {
			return err
		}
		wrong = report(name, "traced", tracedRun, nil) || wrong
		vals := tracedRun.layers
		vals["bench.trace_overhead_frac"] = sumLatency(tracedRun.recs).Seconds()/sumLatency(plain.recs).Seconds() - 1
		vals["bench.span_coverage_frac"] = tr.coverage()
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
		if err := writeTrace(name, seed, tr); err != nil {
			return err
		}
	}
	res.Correct = !wrong
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if wrong {
		return errors.New("wrong results (see the report above)")
	}
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints a pass summary, the workload shares and every failed or
// wrong op to standard error, and reports whether any op was wrong.
func report(name, pass string, rs *runStats, shares []string) bool {
	lat := latencies(rs.recs)
	fmt.Fprintf(os.Stderr, "%s %s: %d ops in %v, p50 %.3f ms, p90 %.3f ms (n=%d)\n",
		name, pass, len(rs.recs), rs.wall.Round(time.Millisecond), ms(quantile(lat, 0.5)), ms(quantile(lat, 0.9)), len(lat))
	for _, s := range shares {
		fmt.Fprintln(os.Stderr, "  share", s)
	}
	wrong := false
	for i, r := range rs.recs {
		if r.wrong != nil {
			wrong = true
			fmt.Fprintf(os.Stderr, "  WRONG op %d (%s): %v\n", i, r.kind, r.wrong)
		} else if r.failed != nil {
			fmt.Fprintf(os.Stderr, "  failed op %d (%s): %v\n", i, r.kind, r.failed)
		}
	}
	return wrong
}

func writeTrace(name string, seed int64, tr *tracer) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "trace written to", path)
	return nil
}

// shareLines formats counts per key as "label key: n (pct%)", keys sorted.
func shareLines(label string, counts map[string]int, total int) []string {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, fmt.Sprintf("%s %s: %d (%.1f%%)", label, k, counts[k], 100*float64(counts[k])/float64(max(total, 1))))
	}
	return out
}

// kindShares counts ops per kind as shareLines.
func kindShares(label string, recs []opRecord) []string {
	byKind := map[string]int{}
	for _, r := range recs {
		byKind[r.kind]++
	}
	return shareLines(label, byKind, len(recs))
}

// latencies returns the latencies of the ops that produced a checked
// result, sorted.
func latencies(recs []opRecord) []time.Duration {
	out := make([]time.Duration, 0, len(recs))
	for _, r := range recs {
		if r.failed == nil && r.wrong == nil {
			out = append(out, r.latency)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sumLatency(recs []opRecord) time.Duration {
	var s time.Duration
	for _, r := range recs {
		s += r.latency
	}
	return s
}

// quantile returns the q-quantile of sorted, interpolating linearly
// between the two nearest ranks.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + time.Duration((pos-float64(lo))*float64(sorted[hi]-sorted[lo]))
}

func median(ds []time.Duration) time.Duration { return quantile(sorted(ds), 0.5) }

// sorted returns a sorted copy of ds.
func sorted(ds []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), ds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (getrusage maxrss; Linux
// reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// closedOp is one op of a closed-loop workload. run makes the timed calls
// and returns the check, which runs after the clock has stopped.
type closedOp struct {
	kind string
	run  func(tr *tracer, parent spanID, id int) func() verdict
}

// runClosed drives ops one after another (one client) in whole passes of
// passLen ops, cycling through them, until budget has elapsed and at least
// minOps ran — or, when maxOps > 0, for exactly maxOps ops. Whole passes
// keep the op mix of every run identical. Wall and CPU time count only the
// timed calls, not the checks between them.
func runClosed(ops []closedOp, passLen int, budget time.Duration, maxOps int, tr *tracer) *runStats {
	rs := &runStats{}
	start := time.Now()
	for i := 0; ; i++ {
		if i%passLen == 0 {
			if maxOps > 0 && i >= maxOps {
				break
			}
			if maxOps == 0 && i >= minOps && time.Since(start) >= budget {
				break
			}
		}
		op := ops[i%len(ops)]
		cpu0 := cpuTime()
		t0 := time.Now()
		root := tr.begin("op:"+op.kind, noSpan, i)
		check := op.run(tr, root, i)
		tr.end(root)
		lat := time.Since(t0)
		rs.cpu += cpuTime() - cpu0
		rs.wall += lat
		v := check()
		rs.recs = append(rs.recs, opRecord{kind: op.kind, latency: lat, failed: v.failed, wrong: v.wrong})
	}
	return rs
}

// spanSum is the total duration of the spans named name, in seconds.
func spanSum(st map[string]*layerStat, names ...string) float64 {
	var s time.Duration
	for _, n := range names {
		if l := st[n]; l != nil {
			s += l.total
		}
	}
	return s.Seconds()
}

// spanCalls is the number of spans named name.
func spanCalls(st map[string]*layerStat, names ...string) float64 {
	n := 0
	for _, name := range names {
		if l := st[name]; l != nil {
			n += l.calls
		}
	}
	return float64(n)
}
