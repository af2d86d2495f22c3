// Command letdma reproduces the evaluation of "Optimal Memory Allocation
// and Scheduling for DMA Data Transfers under the LET Paradigm" (DAC 2021)
// on the WATERS 2019 case study.
//
// Subcommands:
//
//	fig2        one panel of Fig. 2 (latency ratios vs the three baselines)
//	table1      Table I (solver running times and number of DMA transfers)
//	sensitivity the alpha sweep of Section VII
//	schedule    print the optimized memory layout and transfer schedule
//	simulate    run the discrete-event simulator (-trace, -gantt)
//	channels    evaluate the multi-channel DMA extension
//	rta         print WCRTs, slacks and gamma assignments
//	campaign    acceptance-ratio study over random or automotive systems
//	verify      differential verification over generated scenario families
//	fuzz        seeded differential fuzzing sweep (reproduce with -seed)
//	robust      robustness margins under seeded fault injection
//	lp          dump the MILP in CPLEX LP format
//	export      dump the selected system as a JSON description
//
// Common flags: -lite selects the reduced two-core case study; -f loads a
// JSON-described system; -alpha, -obj, -solver, -timeout tune the
// configuration; -fast switches the MILP to the work-stealing FastSearch
// engine (same certified optimum, nondeterministic trajectory; verify and
// fuzz accept -fast too, where every FastSearch result is gated through
// the optimality certificate); fig2/table1/campaign/robust accept -csv.
//
// SIGINT or SIGTERM during a long MILP solve stops the search at the next
// node boundary and reports the incumbent anytime solution; the
// process then exits with code 3 instead of dying with no output. An
// explicit -timeout arms the same stop as a wall-clock budget for the
// whole command.
//
// submit and status talk to a running letdmad daemon (see cmd/letdmad)
// instead of solving in-process.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"letdma/internal/dma"
	"letdma/internal/experiments"
	"letdma/internal/let"
	"letdma/internal/letopt"
	"letdma/internal/model"
	"letdma/internal/multidma"
	"letdma/internal/rta"
	"letdma/internal/serve"
	"letdma/internal/sim"
	"letdma/internal/sysgen"
	"letdma/internal/timeutil"
	"letdma/internal/trace"
	"letdma/internal/verify"
	"letdma/internal/waters"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run wires SIGINT and SIGTERM to the cooperative solver interrupt and
// dispatches. The first signal asks the MILP search to stop at its next
// node boundary; if the command still completes with output (the
// incumbent anytime solution), the process exits with code 3 so scripts —
// and supervisors that terminate with SIGTERM — can tell an
// interrupted-but-useful run from a clean one.
func run(argv []string) int {
	stopper := serve.NewStopper()
	sig := make(chan os.Signal, 1)
	done := make(chan struct{})
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case s := <-sig:
			fmt.Fprintf(os.Stderr, "letdma: %v — stopping the solver at the next boundary\n", s)
			stopper.Stop()
		case <-done:
		}
	}()
	defer close(done)
	defer signal.Stop(sig)
	return runWith(argv, stopper)
}

// solveInterrupt is the interrupt channel of the current invocation; the
// common config plumbs it into every MILP solve.
var solveInterrupt <-chan struct{}

// solveStopper owns solveInterrupt; an explicit -timeout arms its
// wall-clock deadline (serve.Stopper.StopAfter) — the same code path the
// letdmad daemon runs every job under.
var solveStopper *serve.Stopper

// runWith dispatches the subcommand and returns the process exit code:
// 0 on success, 1 on a command error (including verification failures),
// 2 on usage errors, 3 when the run was interrupted (signal or expired
// -timeout budget) but still produced its (anytime) output. Split from
// main so exit codes are testable.
func runWith(argv []string, stopper *serve.Stopper) int {
	solveStopper = stopper
	solveInterrupt = stopper.C()
	if len(argv) < 1 {
		usage()
		return 2
	}
	cmd, args := argv[0], argv[1:]
	var err error
	switch cmd {
	case "fig2":
		err = cmdFig2(args)
	case "table1":
		err = cmdTable1(args)
	case "sensitivity":
		err = cmdSensitivity(args)
	case "schedule":
		err = cmdSchedule(args)
	case "simulate":
		err = cmdSimulate(args)
	case "channels":
		err = cmdChannels(args)
	case "rta":
		err = cmdRTA(args)
	case "campaign":
		err = cmdCampaign(args)
	case "verify":
		err = cmdVerify(args)
	case "fuzz":
		err = cmdFuzz(args)
	case "robust":
		err = cmdRobust(args)
	case "lp":
		err = cmdLP(args)
	case "export":
		err = cmdExport(args)
	case "submit":
		err = cmdSubmit(args)
	case "status":
		err = cmdStatus(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "letdma: unknown command %q\n", cmd)
		usage()
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "letdma %s: %v\n", cmd, err)
		return 1
	}
	if stopper.Stopped() {
		if stopper.Expired() {
			fmt.Fprintln(os.Stderr, "letdma: -timeout budget expired; the output above is the incumbent anytime solution")
		} else {
			fmt.Fprintln(os.Stderr, "letdma: interrupted; the output above is the incumbent anytime solution")
		}
		return 3
	}
	return 0
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: letdma <command> [flags]

commands:
  fig2         reproduce one panel of Fig. 2
  table1       reproduce Table I
  sensitivity  alpha sweep (Section VII)
  schedule     print the optimized layout and transfer schedule
  simulate     run the discrete-event simulator (-trace for chrome JSON)
  channels     evaluate the multi-channel DMA extension
  rta          print WCRTs, slacks and gamma assignments
  campaign     acceptance-ratio study over random systems
  verify       differential verification over generated scenario families
  fuzz         seeded differential fuzzing sweep
  robust       fault-injection robustness margins and survival curves
  lp           dump the MILP in LP format
  export       dump the selected system as a JSON description
  submit       submit a job to a running letdmad daemon
  status       query job status on a running letdmad daemon

any command accepts -f system.json to analyze your own system

run 'letdma <command> -h' for the command's flags`)
}

// commonFlags registers the shared flags on fs and returns getters.
type common struct {
	lite    *bool
	file    *string
	alpha   *float64
	obj     *string
	solver  *string
	timeout *time.Duration
	slots   *int
	workers *int
	fast    *bool
	milplog *bool
}

func commonFlags(fs *flag.FlagSet) *common {
	return &common{
		lite:    fs.Bool("lite", false, "use the reduced two-core case study"),
		file:    fs.String("f", "", "load the system from a JSON description instead of the built-in case study"),
		alpha:   fs.Float64("alpha", 0.2, "sensitivity factor for data-acquisition deadlines (0 disables)"),
		obj:     fs.String("obj", "del", "objective: none | dmat | del"),
		solver:  fs.String("solver", "comb", "solver: comb | milp"),
		timeout: fs.Duration("timeout", 0, "wall-clock budget for the whole command: when it expires the solver stops at the next boundary and reports the incumbent anytime solution (exit code 3); each MILP solve additionally keeps its 60s default time limit (0 = no budget)"),
		slots:   fs.Int("slots", 0, "MILP transfer slots (0 = |C(s0)|)"),
		workers: fs.Int("workers", 0, "FastSearch branch-and-bound workers, read only with -fast (0 or 1 = one worker)"),
		fast:    fs.Bool("fast", false, "use the work-stealing FastSearch MILP engine: same certified optimum, faster wall clock, but node order (and which of several tied optima is returned) depends on goroutine scheduling — audit results with 'verify -fast'"),
		milplog: fs.Bool("milplog", false, "write MILP solver progress and kernel counters (warm hits, cold fallbacks, phase-1 iterations, LU refactorizations, ftran/btran sparsity, eta-file growth) to stderr"),
	}
}

func (c *common) analysis() (*let.Analysis, error) {
	if *c.file != "" {
		f, err := os.Open(*c.file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		sys, err := model.FromJSON(f)
		if err != nil {
			return nil, err
		}
		return let.Analyze(sys)
	}
	if *c.lite {
		return let.Analyze(waters.Lite())
	}
	return waters.Analyze()
}

func (c *common) config() (experiments.Config, error) {
	obj, err := dma.ParseObjective(*c.obj)
	if err != nil {
		return experiments.Config{}, err
	}
	solver := experiments.SolverComb
	if *c.solver == "milp" {
		solver = experiments.SolverMILP
	} else if *c.solver != "comb" {
		return experiments.Config{}, fmt.Errorf("unknown solver %q", *c.solver)
	}
	cfg := experiments.Config{
		Alpha:      *c.alpha,
		Objective:  obj,
		Solver:     solver,
		Slots:      *c.slots,
		Workers:    *c.workers,
		FastSearch: *c.fast,
		Interrupt:  solveInterrupt,
	}
	if *c.milplog {
		cfg.MILPLog = os.Stderr
	}
	// An explicit -timeout is a true wall-clock budget for the whole
	// command, not a per-solve MILP limit (each MILP solve keeps its
	// default 60s backstop): it arms the shared stopper's deadline — the
	// exact code path letdmad runs every job under — so expiry stops the
	// search at the next boundary and the incumbent anytime solution is
	// still printed (exit code 3).
	if *c.timeout > 0 && solveStopper != nil {
		solveStopper.StopAfter(*c.timeout)
	}
	return cfg, nil
}

func cmdFig2(args []string) error {
	fs := flag.NewFlagSet("fig2", flag.ExitOnError)
	c := commonFlags(fs)
	csvOut := fs.Bool("csv", false, "emit CSV instead of the text table")
	all := fs.Bool("all", false, "render every objective at alphas 0.2 and 0.4 (the paper's six panels)")
	_ = fs.Parse(args)
	a, err := c.analysis()
	if err != nil {
		return err
	}
	cfg, err := c.config()
	if err != nil {
		return err
	}
	if *all {
		var panels []*experiments.Fig2Result
		for _, obj := range []dma.Objective{dma.NoObjective, dma.MinTransfers, dma.MinDelayRatio} {
			for _, alpha := range []float64{0.2, 0.4} {
				cfg.Objective, cfg.Alpha = obj, alpha
				p, err := experiments.Fig2(a, cfg)
				if err != nil {
					return err
				}
				panels = append(panels, p)
			}
		}
		if *csvOut {
			// One CSV table: a single header row over all six panels.
			return experiments.WriteFig2CSV(os.Stdout, panels...)
		}
		for i, p := range panels {
			if i > 0 {
				fmt.Println()
			}
			if err := experiments.RenderFig2(os.Stdout, p); err != nil {
				return err
			}
		}
		return nil
	}
	res, err := experiments.Fig2(a, cfg)
	if err != nil {
		return err
	}
	if *csvOut {
		return experiments.WriteFig2CSV(os.Stdout, res)
	}
	return experiments.RenderFig2(os.Stdout, res)
}

func cmdTable1(args []string) error {
	fs := flag.NewFlagSet("table1", flag.ExitOnError)
	c := commonFlags(fs)
	csvOut := fs.Bool("csv", false, "emit CSV instead of the text table")
	_ = fs.Parse(args)
	a, err := c.analysis()
	if err != nil {
		return err
	}
	cfg, err := c.config()
	if err != nil {
		return err
	}
	alphas := []float64{0.2, 0.4}
	rows, err := experiments.TableI(a, alphas, cfg)
	if err != nil {
		return err
	}
	if *csvOut {
		return experiments.WriteTableICSV(os.Stdout, rows)
	}
	return experiments.RenderTableI(os.Stdout, rows, alphas)
}

func cmdSensitivity(args []string) error {
	fs := flag.NewFlagSet("sensitivity", flag.ExitOnError)
	c := commonFlags(fs)
	_ = fs.Parse(args)
	a, err := c.analysis()
	if err != nil {
		return err
	}
	cfg, err := c.config()
	if err != nil {
		return err
	}
	rows := experiments.Sensitivity(a, []float64{0.1, 0.2, 0.3, 0.4, 0.5}, cfg)
	return experiments.RenderSensitivity(os.Stdout, rows)
}

func cmdSchedule(args []string) error {
	fs := flag.NewFlagSet("schedule", flag.ExitOnError)
	c := commonFlags(fs)
	_ = fs.Parse(args)
	a, err := c.analysis()
	if err != nil {
		return err
	}
	cfg, err := c.config()
	if err != nil {
		return err
	}
	solved, err := experiments.SolveProposed(a, cfg)
	if err != nil {
		return err
	}
	printSolution(a, solved)
	return nil
}

func printSolution(a *let.Analysis, solved *experiments.Solved) {
	cm := dma.DefaultCostModel()
	fmt.Printf("Solved in %v: %d DMA transfers%s\n\n", solved.SolveTime.Round(time.Millisecond),
		solved.NumTransfers, milpSuffix(solved))
	fmt.Println("Memory layout (objects in address order):")
	for m := 0; m <= a.Sys.NumCores; m++ {
		mem := memName(a, m)
		objs := solved.Layout.Order(model.MemoryID(m))
		if len(objs) == 0 {
			continue
		}
		fmt.Printf("  %s:", mem)
		addrs := solved.Layout.Addresses(model.MemoryID(m), a.Sys)
		for _, o := range objs {
			name := a.Sys.Label(o.Label).Name
			if o.Task != dma.SharedObject {
				name += "/" + a.Sys.Task(o.Task).Name
			}
			fmt.Printf(" [%s @0x%04x]", name, addrs[o])
		}
		fmt.Println()
	}
	fmt.Println("\nDMA transfer schedule at s0:")
	elapsed := timeutil.Time(0)
	for g, tr := range solved.Sched.Transfers {
		cost := cm.TransferCost(dma.TransferSize(a, tr))
		elapsed += cost
		fmt.Printf("  d%-2d (%8s, ends %8s):", g+1, cost, elapsed)
		for _, z := range tr.Comms {
			fmt.Printf(" %s", a.CommString(z))
		}
		fmt.Println()
	}
	fmt.Println("\nWorst-case data-acquisition latencies:")
	for _, task := range a.Sys.Tasks {
		lam := dma.WorstLatency(a, cm, solved.Sched, task.ID, dma.PerTaskReadiness)
		gamma := "-"
		if g, ok := solved.Gamma[task.ID]; ok {
			gamma = g.String()
		}
		fmt.Printf("  %-5s lambda=%-10s gamma=%-10s lambda/T=%.5f\n",
			task.Name, lam, gamma, float64(lam)/float64(task.Period))
	}
}

func milpSuffix(s *experiments.Solved) string {
	if s.MILPStatus == "" {
		return ""
	}
	return " (MILP: " + s.MILPStatus + ")"
}

func memName(a *let.Analysis, m int) string {
	if m == a.Sys.NumCores {
		return "M_G (global)"
	}
	return fmt.Sprintf("M%d (core %d)", m, m)
}

func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	c := commonFlags(fs)
	proto := fs.String("protocol", "proposed", "protocol: proposed | cpu | dmaa | dmab")
	hps := fs.Int("hyperperiods", 1, "hyperperiods to simulate")
	traceFile := fs.String("trace", "", "write a chrome://tracing JSON file")
	gantt := fs.Duration("gantt", 0, "render an ASCII timeline of the first N of simulated time")
	_ = fs.Parse(args)
	a, err := c.analysis()
	if err != nil {
		return err
	}
	cfg, err := c.config()
	if err != nil {
		return err
	}
	var p sim.Protocol
	switch *proto {
	case "proposed":
		p = sim.Proposed
	case "cpu":
		p = sim.GiottoCPU
	case "dmaa":
		p = sim.GiottoDMAA
	case "dmab":
		p = sim.GiottoDMAB
	default:
		return fmt.Errorf("unknown protocol %q", *proto)
	}
	var sched *dma.Schedule
	if p == sim.Proposed || p == sim.GiottoDMAB {
		solved, err := experiments.SolveProposed(a, cfg)
		if err != nil {
			return err
		}
		sched = solved.Sched
	}
	var tr *trace.Trace
	if *traceFile != "" || *gantt > 0 {
		tr = &trace.Trace{}
	}
	res, err := sim.Run(sim.Config{
		Analysis: a, Cost: dma.DefaultCostModel(), Sched: sched,
		Protocol: p, Hyperperiods: *hps, Trace: tr,
	})
	if err != nil {
		return err
	}
	fmt.Printf("Simulated %s over %d hyperperiod(s); Property-3 violations: %d\n\n",
		p, *hps, res.Property3Violations)
	fmt.Printf("%-6s %6s %14s %14s %8s\n", "task", "jobs", "max lambda", "max response", "misses")
	for _, task := range a.Sys.Tasks {
		st := res.Stats[task.ID]
		fmt.Printf("%-6s %6d %14s %14s %8d\n", st.Name, st.Jobs, st.MaxLatency, st.MaxResponse, st.Misses)
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := tr.WriteChrome(f); err != nil {
			return err
		}
		fmt.Printf("\nwrote %d trace events to %s (open in chrome://tracing)\n", len(tr.Events), *traceFile)
	}
	if *gantt > 0 {
		fmt.Println()
		if err := tr.RenderASCII(os.Stdout, 0, timeutil.FromDuration(*gantt), 100); err != nil {
			return err
		}
	}
	return nil
}

func cmdChannels(args []string) error {
	fs := flag.NewFlagSet("channels", flag.ExitOnError)
	c := commonFlags(fs)
	maxK := fs.Int("maxk", 4, "evaluate 1..maxk DMA channels")
	_ = fs.Parse(args)
	a, err := c.analysis()
	if err != nil {
		return err
	}
	cfg, err := c.config()
	if err != nil {
		return err
	}
	solved, err := experiments.SolveProposed(a, cfg)
	if err != nil {
		return err
	}
	cm := dma.DefaultCostModel()
	fmt.Printf("Multi-channel DMA extension on %d transfers (%s, alpha=%.1f)\n\n",
		solved.NumTransfers, cfg.Objective, cfg.Alpha)
	fmt.Printf("%-9s %12s", "channels", "max lam/T")
	for _, task := range a.Sys.Tasks {
		fmt.Printf(" %10s", task.Name)
	}
	fmt.Println()
	for k := 1; k <= *maxK; k++ {
		asg, err := multidma.GreedyAssign(a, cm, solved.Sched, k)
		if err != nil {
			return err
		}
		if err := multidma.Validate(a, cm, solved.Sched, asg); err != nil {
			return fmt.Errorf("k=%d: %w", k, err)
		}
		ratio, err := multidma.MaxLatencyRatio(a, cm, solved.Sched, asg)
		if err != nil {
			return err
		}
		fmt.Printf("%-9d %12.5f", k, ratio)
		for _, task := range a.Sys.Tasks {
			lam, err := multidma.Latency(a, cm, solved.Sched, asg, 0, task.ID)
			if err != nil {
				return err
			}
			fmt.Printf(" %10s", lam)
		}
		fmt.Println()
	}
	return nil
}

func cmdRTA(args []string) error {
	fs := flag.NewFlagSet("rta", flag.ExitOnError)
	c := commonFlags(fs)
	_ = fs.Parse(args)
	a, err := c.analysis()
	if err != nil {
		return err
	}
	cm := dma.DefaultCostModel()
	intf := rta.LETDemand(a, cm, dma.GiottoPerCommSchedule(a))
	wcrt, err := rta.WCRT(a.Sys, nil, intf)
	if err != nil {
		return err
	}
	gammas, gerr := rta.Gammas(a, intf, *c.alpha)
	fmt.Printf("%-6s %10s %10s %12s %12s %12s\n", "task", "T", "C", "WCRT", "slack", fmt.Sprintf("gamma(%.1f)", *c.alpha))
	for _, task := range a.Sys.Tasks {
		g := "-"
		if gerr == nil {
			if gv, ok := gammas[task.ID]; ok {
				g = gv.String()
			}
		}
		fmt.Printf("%-6s %10s %10s %12s %12s %12s\n",
			task.Name, task.Period, task.WCET, wcrt[task.ID], task.Period-wcrt[task.ID], g)
	}
	if gerr != nil {
		fmt.Printf("\ngamma assignment failed: %v\n", gerr)
	}
	return nil
}

func cmdLP(args []string) error {
	fs := flag.NewFlagSet("lp", flag.ExitOnError)
	c := commonFlags(fs)
	_ = fs.Parse(args)
	a, err := c.analysis()
	if err != nil {
		return err
	}
	obj, err := dma.ParseObjective(*c.obj)
	if err != nil {
		return err
	}
	return letopt.WriteLP(os.Stdout, a, dma.DefaultCostModel(), nil, obj, *c.slots)
}

func cmdCampaign(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	systems := fs.Int("systems", 100, "random systems per alpha")
	seed := fs.Int64("seed", 1, "generator seed")
	maxBytes := fs.Int64("maxbytes", 32<<10, "max random label size")
	auto := fs.Bool("automotive", false, "use the KDB automotive benchmark generator")
	csvOut := fs.Bool("csv", false, "emit CSV instead of the text table")
	_ = fs.Parse(args)
	rows, err := experiments.Campaign(experiments.CampaignConfig{
		Systems:    *systems,
		Seed:       *seed,
		RandomOpts: waters.RandomOptions{MaxLabelBytes: *maxBytes},
		Automotive: *auto,
	})
	if err != nil {
		return err
	}
	if *csvOut {
		return experiments.WriteCampaignCSV(os.Stdout, rows)
	}
	fmt.Printf("Acceptance ratios over %d random systems per alpha (seed %d):\n\n", *systems, *seed)
	return experiments.RenderCampaign(os.Stdout, rows)
}

// verifyFlags are the knobs shared by the verify and fuzz subcommands.
type verifyFlags struct {
	seed       *int64
	n          *int
	family     *string
	workers    *int
	timeout    *time.Duration
	exhaustive *int64
	fast       *bool
	quiet      *bool
}

func newVerifyFlags(fs *flag.FlagSet, defaultN int) *verifyFlags {
	return &verifyFlags{
		seed:       fs.Int64("seed", 1, "base generator seed (failures reproduce from it)"),
		n:          fs.Int("n", defaultN, "number of scenarios to check"),
		family:     fs.String("family", "", "restrict to one scenario family (harmonic | coprime | stars | single-core | saturated | extremes | deep-ties)"),
		workers:    fs.Int("workers", 0, "FastSearch branch-and-bound workers, read only with -fast (0 or 1 = one worker)"),
		timeout:    fs.Duration("timeout", 5*time.Second, "MILP time limit per instance"),
		exhaustive: fs.Int64("exhaustive", 0, "brute-force candidate budget (0 = harness default)"),
		fast:       fs.Bool("fast", false, "also run the FastSearch MILP engine on every tractable instance, gated through the optimality certificate (verify.CheckOptimal)"),
		quiet:      fs.Bool("q", false, "print only failures and the summary"),
	}
}

func (v *verifyFlags) options() verify.Options {
	return verify.Options{
		MILPTimeLimit:    *v.timeout,
		ExhaustiveBudget: *v.exhaustive,
		Workers:          *v.workers,
		FastSearch:       *v.fast,
	}
}

// scenarios builds the deterministic scenario list for the flags.
func (v *verifyFlags) scenarios() ([]*sysgen.Scenario, error) {
	if *v.n <= 0 {
		return nil, fmt.Errorf("-n must be positive")
	}
	if *v.family == "" {
		return sysgen.GenerateN(*v.seed, *v.n)
	}
	out := make([]*sysgen.Scenario, 0, *v.n)
	for i := 0; i < *v.n; i++ {
		sc, err := sysgen.Generate(*v.seed+int64(i), sysgen.Family(*v.family))
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}

// runDifferential checks every scenario and reports per-scenario lines
// plus a summary. It returns an error (exit code 1) if any scenario
// produced violations, so CI can gate on the command directly.
func runDifferential(scs []*sysgen.Scenario, opts verify.Options, quiet bool) error {
	var werr error
	printf := func(format string, args ...any) {
		if werr != nil {
			return
		}
		_, werr = fmt.Printf(format, args...)
	}
	failed := 0
	for _, sc := range scs {
		rep := verify.CheckScenario(sc, opts)
		if len(rep.Violations) == 0 {
			if !quiet {
				printf("ok   %-24s comms=%-3d paths=%s\n", rep.Name, rep.NumComms, strings.Join(rep.Paths, ","))
			}
			continue
		}
		failed++
		printf("FAIL %-24s comms=%-3d paths=%s\n", rep.Name, rep.NumComms, strings.Join(rep.Paths, ","))
		for _, v := range rep.Violations {
			printf("     %s\n", v)
		}
	}
	printf("%d scenarios checked, %d failed\n", len(scs), failed)
	if werr != nil {
		return werr
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d scenarios violated paper invariants", failed, len(scs))
	}
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	v := newVerifyFlags(fs, 2*len(sysgen.Families()))
	_ = fs.Parse(args)
	scs, err := v.scenarios()
	if err != nil {
		return err
	}
	return runDifferential(scs, v.options(), *v.quiet)
}

func cmdFuzz(args []string) error {
	fs := flag.NewFlagSet("fuzz", flag.ExitOnError)
	v := newVerifyFlags(fs, 100)
	_ = fs.Parse(args)
	scs, err := v.scenarios()
	if err != nil {
		return err
	}
	// The fuzz sweep favors breadth: quiet per-scenario output by
	// default would hide coverage, so keep the ok lines unless -q.
	return runDifferential(scs, v.options(), *v.quiet)
}

// cmdRobust runs the fault-injection robustness experiment: critical
// uniform DMA slowdown per protocol plus survival curves over a sweep of
// transient-error rates. The report is a pure function of the flags, so
// CI diffs it against a golden file.
func cmdRobust(args []string) error {
	fs := flag.NewFlagSet("robust", flag.ExitOnError)
	c := commonFlags(fs)
	seed := fs.Int64("seed", 7, "fault-scenario seed (identical seeds give byte-identical reports)")
	policy := fs.String("policy", "abort", "degradation policy: abort | waitall | failfast")
	rates := fs.String("faultrate", "", "comma-separated transient-error rates for the survival sweep (default 0.001,0.01,0.05,0.1)")
	trials := fs.Int("trials", 20, "seeded trials per fault rate")
	hps := fs.Int("hyperperiods", 1, "hyperperiods per simulation run")
	csvOut := fs.Bool("csv", false, "emit CSV instead of the text table")
	_ = fs.Parse(args)
	a, err := c.analysis()
	if err != nil {
		return err
	}
	cfg, err := c.config()
	if err != nil {
		return err
	}
	pol, err := sim.ParseDegradePolicy(*policy)
	if err != nil {
		return err
	}
	rcfg := experiments.RobustnessConfig{
		Seed:         *seed,
		Policy:       pol,
		Trials:       *trials,
		Hyperperiods: *hps,
	}
	if *rates != "" {
		for _, field := range strings.Split(*rates, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
			if err != nil {
				return fmt.Errorf("-faultrate: %w", err)
			}
			if r < 0 || r > 1 {
				return fmt.Errorf("-faultrate: rate %g outside [0, 1]", r)
			}
			rcfg.Rates = append(rcfg.Rates, r)
		}
	}
	res, err := experiments.Robustness(a, cfg, rcfg)
	if err != nil {
		return err
	}
	if *csvOut {
		return experiments.WriteRobustnessCSV(os.Stdout, res)
	}
	return experiments.RenderRobustness(os.Stdout, res)
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	c := commonFlags(fs)
	_ = fs.Parse(args)
	var sys *model.System
	switch {
	case *c.file != "":
		f, err := os.Open(*c.file)
		if err != nil {
			return err
		}
		defer f.Close()
		var perr error
		sys, perr = model.FromJSON(f)
		if perr != nil {
			return perr
		}
	case *c.lite:
		sys = waters.Lite()
	default:
		sys = waters.System()
	}
	return sys.ToJSON(os.Stdout)
}
