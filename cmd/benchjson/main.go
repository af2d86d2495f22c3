// Command benchjson converts the text output of `go test -bench` into a
// small JSON document, so CI can archive solver and simulator benchmarks
// (LP iteration counts, warm_hits and warm_expands, node counts, margin
// search replays, ordering-DP states) as a machine-readable artifact
// next to the human-readable benchstat diff.
//
// Usage:
//
//	go test -bench BenchmarkWarmStartBnB -run '^$' . | benchjson -o BENCH_milp.json
//	benchjson bench.txt
//	benchjson -diff BENCH_milp.json bench.txt
//
// With -diff, the parsed input is compared against a previously committed
// JSON snapshot and a per-metric delta table is printed instead of JSON.
// Deterministic metrics (lp_iters, nodes, warm_hits, warm_expands,
// transfers, replays, dp_states) that drift are marked, since they change
// only when the solver trajectory, the proved optimum, the margin search
// or the ordering DP's pruning changes;
// timing metrics are reported as ratios and never marked.
//
// The parser understands the standard benchmark line format
//
//	BenchmarkName/sub-8   	      10	 123456 ns/op	  42.0 lp_iters
//
// plus the context header lines (goos, goarch, pkg, cpu). Unknown lines
// are ignored, so the tool is safe to run on full `go test` transcripts.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the full benchmark name including sub-benchmarks and the
	// trailing -GOMAXPROCS suffix, exactly as printed by the harness.
	Name string `json:"name"`
	// Runs is b.N for the reported measurement.
	Runs int64 `json:"runs"`
	// Metrics maps unit -> value for every "value unit" pair on the line
	// (ns/op, B/op, allocs/op and any b.ReportMetric custom units).
	Metrics map[string]float64 `json:"metrics"`
}

// Doc is the emitted JSON document.
type Doc struct {
	// Context holds the header key/value lines (goos, goarch, pkg, cpu).
	Context map[string]string `json:"context,omitempty"`
	// Benchmarks lists results in input order.
	Benchmarks []Benchmark `json:"benchmarks"`
}

// contextKeys are the `go test -bench` header lines worth preserving.
var contextKeys = []string{"goos", "goarch", "pkg", "cpu"}

// parseLine parses one benchmark result line, returning ok=false for
// lines that are not benchmark results.
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	// A result line's second field is b.N; "BenchmarkFoo" alone (verbose
	// mode announcement) or RUN/PASS decoration is not a result.
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Runs: runs, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}

// parse reads a full `go test -bench` transcript.
func parse(r io.Reader) (*Doc, error) {
	doc := &Doc{Benchmarks: []Benchmark{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if b, ok := parseLine(line); ok {
			doc.Benchmarks = append(doc.Benchmarks, b)
			continue
		}
		for _, key := range contextKeys {
			if rest, ok := strings.CutPrefix(line, key+": "); ok {
				if doc.Context == nil {
					doc.Context = map[string]string{}
				}
				doc.Context[key] = strings.TrimSpace(rest)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return doc, nil
}

// deterministicMetrics are values that are a pure function of the search
// that produced them — the solver trajectory and its sparse-kernel activity
// (eta-file entries, mean FTRAN result nonzeros), the proved optimum
// ("transfers", equal on every engine), the number of simulator replays
// the robustness-margin search runs beyond its closed-form spill bound
// ("replays"), or the states combopt's ordering DP
// expanded ("dp_states"): any drift means the search itself changed, not
// the machine it ran on.
var deterministicMetrics = map[string]bool{
	"lp_iters": true, "nodes": true, "warm_hits": true, "warm_expands": true,
	"eta_nnz": true, "ftran_avg_nnz": true, "transfers": true, "replays": true,
	"dp_states": true,
}

// fold aggregates repeated runs of the same benchmark (-count > 1): the
// minimum per metric, which is the standard summary for timings and the
// identity for deterministic counters.
func fold(doc *Doc) ([]string, map[string]map[string]float64) {
	var order []string
	agg := map[string]map[string]float64{}
	for _, b := range doc.Benchmarks {
		m, ok := agg[b.Name]
		if !ok {
			m = map[string]float64{}
			agg[b.Name] = m
			order = append(order, b.Name)
		}
		for unit, v := range b.Metrics {
			if old, seen := m[unit]; !seen || v < old {
				m[unit] = v
			}
		}
	}
	return order, agg
}

// diff prints a per-metric comparison of the new run against the committed
// snapshot and returns the number of drifted deterministic metrics.
func diff(committed, fresh *Doc, w io.Writer) int {
	oldOrder, oldAgg := fold(committed)
	newOrder, newAgg := fold(fresh)
	drift := 0
	pr := func(format string, args ...any) { _, _ = fmt.Fprintf(w, format, args...) }
	pr("%-40s %-12s %14s %14s %10s\n", "benchmark", "metric", "committed", "new", "delta")
	for _, name := range newOrder {
		old, ok := oldAgg[name]
		if !ok {
			pr("%-40s %-12s %14s %14s %10s\n", name, "-", "(absent)", "", "new")
			continue
		}
		units := make([]string, 0, len(newAgg[name]))
		for unit := range newAgg[name] {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			nv := newAgg[name][unit]
			ov, seen := old[unit]
			switch {
			case !seen:
				pr("%-40s %-12s %14s %14.6g %10s\n", name, unit, "(absent)", nv, "new")
			case ov == nv:
				pr("%-40s %-12s %14.6g %14.6g %10s\n", name, unit, ov, nv, "=")
			default:
				delta := "n/a"
				if ov != 0 {
					delta = fmt.Sprintf("%+.1f%%", 100*(nv-ov)/ov)
				}
				mark := ""
				if deterministicMetrics[unit] {
					mark = " DRIFT"
					drift++
				}
				pr("%-40s %-12s %14.6g %14.6g %10s%s\n", name, unit, ov, nv, delta, mark)
			}
		}
	}
	for _, name := range oldOrder {
		if _, ok := newAgg[name]; !ok {
			pr("%-40s %-12s %14s %14s %10s\n", name, "-", "", "(absent)", "gone")
		}
	}
	if drift > 0 {
		pr("\n%d deterministic metric(s) drifted: the search changed; refresh the snapshot (make bench-update) if intended.\n", drift)
	}
	return drift
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	out := fs.String("o", "", "write JSON to this file instead of stdout")
	against := fs.String("diff", "", "compare the input against this committed JSON snapshot instead of emitting JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	in := stdin
	if fs.NArg() > 1 {
		return fmt.Errorf("benchjson: at most one input file, got %d", fs.NArg())
	}
	if fs.NArg() == 1 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	doc, err := parse(in)
	if err != nil {
		return err
	}
	if *against != "" {
		data, err := os.ReadFile(*against)
		if err != nil {
			return err
		}
		var committed Doc
		if err := json.Unmarshal(data, &committed); err != nil {
			return fmt.Errorf("benchjson: %s: %w", *against, err)
		}
		diff(&committed, doc, stdout)
		return nil
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out != "" {
		return os.WriteFile(*out, data, 0o644)
	}
	_, err = stdout.Write(data)
	return err
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
