package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"letdma/internal/combopt"
	"letdma/internal/dma"
	"letdma/internal/let"
	"letdma/internal/letopt"
	"letdma/internal/milp"
	"letdma/internal/model"
	"letdma/internal/rta"
	"letdma/internal/sysgen"
	"letdma/internal/verify"
	"letdma/internal/waters"
)

// milpStrata is how many instances milp-prove draws per family and
// communication count. At most five communications: at six,
// harmonic/seed=7 does not prove optimality within 20 s, and a speed claim
// must rest on instances the solver proves. Families cover every comm count they generate in
// practice (stars only 4, deep-ties only 4 and 5); single-core has no
// inter-core communication and cannot be analyzed. Cheap strata get more
// instances than the 5-communication ones, whose OBJ-DEL solves take
// seconds.
var milpStrata = map[sysgen.Family]map[int]int{
	sysgen.Harmonic:  {2: 2, 3: 2, 4: 2, 5: 1},
	sysgen.Coprime:   {2: 2, 3: 2, 4: 2, 5: 1},
	sysgen.Extremes:  {2: 2, 3: 2, 4: 2, 5: 1},
	sysgen.Saturated: {2: 2, 3: 2, 4: 2, 5: 1},
	sysgen.Stars:     {4: 2},
	sysgen.DeepTies:  {4: 2, 5: 1},
}

// milpObjectives are the paper's three objectives.
var milpObjectives = []dma.Objective{dma.NoObjective, dma.MinTransfers, dma.MinDelayRatio}

// milpAlpha is the letdma CLI's default sensitivity factor.
const milpAlpha = 0.2

// watersSlots is the MILP transfer-slot cap of the paper's Table I run.
const watersSlots = 16

// milpInstance is one system of the milp-prove pool.
type milpInstance struct {
	name  string
	sys   *model.System
	comms int
	slots int
}

// milpProve runs the `letdma schedule -solver milp` path once per op:
// let.Analyze → rta.LETDemand/rta.Gammas → combopt.SolveWithOptions (the
// warm start) → letopt.Solve on the default deterministic engine.
type milpProve struct {
	ops []closedOp
	ctr milpCounters
}

// milpCounters aggregate the solver's own counts over a pass.
type milpCounters struct {
	solves, proved, numerical       int
	warmStartOptimal                int
	vars, cons                      int
	nodes, iters                    int
	cold, warmHits, warmExpands     int
	refactor, ftranSolves, ftranNnz int
	etaNnz, luNnz                   int
	search, letoptWall              time.Duration
}

func (c *milpCounters) add(res *letopt.Result, wall time.Duration) {
	c.solves++
	if res.Status == milp.StatusOptimal || res.Status == milp.StatusInfeasible {
		c.proved++
	}
	if res.StopCause == milp.StopNumerical {
		c.numerical++
	}
	c.vars += res.ModelVars
	c.cons += res.ModelCons
	c.nodes += res.Nodes
	c.iters += res.SimplexIters
	k := res.Kernel
	c.cold += k.ColdSolves
	c.warmHits += k.WarmHits
	c.warmExpands += k.WarmExpands
	c.refactor += k.Refactorizations
	c.ftranSolves += k.FtranSolves
	c.ftranNnz += k.FtranNnz
	c.etaNnz += k.EtaNnz
	c.luNnz += k.LuNnz
	c.search += res.Runtime
	c.letoptWall += wall
}

// milpCatalogSeed draws the milp-prove instances. The catalog is the same
// for every --seed, which sets only the op order: within one stratum the
// branch-and-bound cost of an instance varies sixfold (0.7-4.4 s for
// 5-communication OBJ-DEL), so seeded catalogs moved p90 latency and
// throughput by a factor of two between seeds.
const milpCatalogSeed = 1

func (m *milpProve) setup(seed int64, _ *tracer) error {
	insts, err := drawInstances(rand.New(rand.NewSource(milpCatalogSeed)), milpStrata)
	if err != nil {
		return err
	}
	insts = append(insts, milpInstance{name: "waters", sys: waters.System(), comms: 20, slots: watersSlots})
	m.ops = m.ops[:0]
	for _, inst := range insts {
		for _, obj := range milpObjectives {
			m.ops = append(m.ops, m.op(inst, obj))
		}
	}
	// Warm-up: one op off the clock, so lazy runtime set-up is paid before
	// the first measured op.
	if v := m.ops[0].run(nil, noSpan, -1)(); v.failed != nil || v.wrong != nil {
		return fmt.Errorf("warm-up op %s: %v %v", m.ops[0].kind, v.failed, v.wrong)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(m.ops), func(i, j int) { m.ops[i], m.ops[j] = m.ops[j], m.ops[i] })
	return nil
}

// drawInstances fills strata (instances per family and communication
// count) with sysgen scenarios drawn from rng.
// A candidate is kept only if the CLI path can run on it: it analyzes, the
// RTA grants alpha = 0.2, and the combinatorial solver finds the warm start
// under every objective (a system that fails these is an infeasible input,
// not a solver failure).
func drawInstances(rng *rand.Rand, strata map[sysgen.Family]map[int]int) ([]milpInstance, error) {
	need := map[sysgen.Family]map[int]int{}
	left := 0
	for f, byComms := range strata {
		need[f] = map[int]int{}
		for c, n := range byComms {
			need[f][c] = n
			left += n
		}
	}
	var out []milpInstance
	cm := dma.DefaultCostModel()
	for draws := 0; left > 0; draws++ {
		if draws > 20000 {
			return nil, fmt.Errorf("%d instances still missing after %d draws", left, draws)
		}
		s := rng.Int63n(1 << 40)
		for _, f := range sysgen.Families() {
			if need[f] == nil {
				continue
			}
			sc, err := sysgen.Generate(s, f)
			if err != nil || sc.ExpectNoComm || sc.ExpectInfeasible {
				continue
			}
			a, err := let.Analyze(sc.Sys)
			if err != nil || need[f][len(a.Comms)] == 0 {
				continue
			}
			gamma, err := rta.Gammas(a, rta.LETDemand(a, cm, dma.GiottoPerCommSchedule(a)), milpAlpha)
			if err != nil {
				continue
			}
			feasible := true
			for _, obj := range milpObjectives {
				if _, err := combopt.SolveWithOptions(a, cm, gamma, obj, combopt.Options{}); err != nil {
					feasible = false
					break
				}
			}
			if !feasible {
				continue
			}
			need[f][len(a.Comms)]--
			left--
			out = append(out, milpInstance{name: sc.Name, sys: sc.Sys, comms: len(a.Comms)})
		}
	}
	return out, nil
}

// op builds one milp-prove op: instance inst under objective obj.
func (m *milpProve) op(inst milpInstance, obj dma.Objective) closedOp {
	kind := fmt.Sprintf("%dcomm/%s", inst.comms, obj)
	if inst.name == "waters" {
		kind = "waters/" + obj.String()
	}
	cm := dma.DefaultCostModel()
	return closedOp{kind: kind, run: func(tr *tracer, parent spanID, id int) func() verdict {
		fail := func(err error) func() verdict { return func() verdict { return verdict{failed: err} } }
		var a *let.Analysis
		var err error
		tr.call("let.Analyze", parent, id, func() { a, err = let.Analyze(inst.sys) })
		if err != nil {
			return fail(err)
		}
		var perComm *dma.Schedule
		tr.call("dma.GiottoPerCommSchedule", parent, id, func() { perComm = dma.GiottoPerCommSchedule(a) })
		var intf map[model.CoreID]rta.LETInterference
		tr.call("rta.LETDemand", parent, id, func() { intf = rta.LETDemand(a, cm, perComm) })
		var gamma dma.Deadlines
		tr.call("rta.Gammas", parent, id, func() { gamma, err = rta.Gammas(a, intf, milpAlpha) })
		if err != nil {
			return fail(err)
		}
		var comb *combopt.Result
		tr.call("combopt.SolveWithOptions", parent, id, func() {
			comb, err = combopt.SolveWithOptions(a, cm, gamma, obj, combopt.Options{})
		})
		if err != nil {
			return fail(err)
		}
		var res *letopt.Result
		t0 := time.Now()
		tr.call("letopt.Solve", parent, id, func() {
			res, err = letopt.Solve(a, cm, gamma, obj, letopt.Options{
				Slots:      inst.slots,
				MILP:       milp.Params{TimeLimit: 60 * time.Second},
				WarmLayout: comb.Layout,
				WarmSched:  comb.Sched,
			})
		})
		wall := time.Since(t0)
		if err != nil {
			return fail(err)
		}
		return func() verdict {
			m.ctr.add(res, wall)
			return checkMILP(a, cm, gamma, obj, comb, res, &m.ctr)
		}
	}}
}

// checkMILP is the milp-prove oracle: the status is decided with the gap
// closed, verify.CheckSolution (which re-derives every constraint from the
// analysis, independently of the formulation) accepts the layout and
// schedule, and the objective is no worse than the combopt warm start.
func checkMILP(a *let.Analysis, cm dma.CostModel, gamma dma.Deadlines, obj dma.Objective, comb *combopt.Result, res *letopt.Result, ctr *milpCounters) verdict {
	if res.Status != milp.StatusOptimal || res.Gap > 1e-9 {
		return verdict{failed: fmt.Errorf("undecided: status %v, stop %v, gap %g", res.Status, res.StopCause, res.Gap)}
	}
	if res.Layout == nil || res.Sched == nil {
		return verdict{wrong: errors.New("optimal status without a solution")}
	}
	if vs := verify.CheckSolution(a, cm, res.Layout, res.Sched, gamma); len(vs) > 0 {
		return verdict{wrong: fmt.Errorf("verify.CheckSolution: %v", vs[0])}
	}
	switch obj {
	case dma.MinTransfers:
		if got := res.Sched.NumTransfers(); got > comb.NumTransfers {
			return verdict{wrong: fmt.Errorf("%d transfers, warm start had %d", got, comb.NumTransfers)}
		} else if got == comb.NumTransfers {
			ctr.warmStartOptimal++
		}
	case dma.MinDelayRatio:
		got := dma.MaxLatencyRatio(a, cm, res.Sched, dma.PerTaskReadiness)
		if got > comb.Objective*(1+1e-9) {
			return verdict{wrong: fmt.Errorf("max latency ratio %g, warm start had %g", got, comb.Objective)}
		} else if got >= comb.Objective*(1-1e-9) {
			ctr.warmStartOptimal++
		}
	}
	return verdict{}
}

func (m *milpProve) measure(budget time.Duration, maxOps int, tr *tracer) (*runStats, error) {
	m.ctr = milpCounters{}
	rs := runClosed(m.ops, len(m.ops), budget, maxOps, tr)
	if tr == nil {
		return rs, nil
	}
	st := tr.byName()
	c := m.ctr
	rs.layers = map[string]float64{
		"let.analyze_s":            spanSum(st, "let.Analyze"),
		"rta.gammas_s":             spanSum(st, "rta.LETDemand", "rta.Gammas"),
		"combopt.solve_s":          spanSum(st, "combopt.SolveWithOptions"),
		"combopt.calls":            spanCalls(st, "combopt.SolveWithOptions"),
		"letopt.overhead_s":        (c.letoptWall - c.search).Seconds(),
		"letopt.model_vars":        float64(c.vars),
		"letopt.model_cons":        float64(c.cons),
		"milp.search_s":            c.search.Seconds(),
		"milp.nodes":               float64(c.nodes),
		"milp.lp_iters":            float64(c.iters),
		"milp.cold_solves":         float64(c.cold),
		"milp.warm_hits":           float64(c.warmHits),
		"milp.warm_expands":        float64(c.warmExpands),
		"milp.refactorizations":    float64(c.refactor),
		"milp.ftran_nnz_per_solve": float64(c.ftranNnz) / float64(max(c.ftranSolves, 1)),
		"milp.eta_nnz":             float64(c.etaNnz),
		"milp.lu_nnz":              float64(c.luNnz),
		"milp.lp_iters_per_s":      float64(c.iters) / c.search.Seconds(),
		"milp.proved_frac":         float64(c.proved) / float64(max(c.solves, 1)),
		"milp.numerical_stops":     float64(c.numerical),
		"dma.latency_s":            spanSum(st, "dma.GiottoPerCommSchedule"),
	}
	return rs, nil
}

func (m *milpProve) shares(recs []opRecord) []string {
	byComms, byObj := map[string]int{}, map[string]int{}
	for _, r := range recs {
		comms, obj, _ := strings.Cut(r.kind, "/")
		byComms[comms]++
		byObj[obj]++
	}
	out := append(shareLines("comms", byComms, len(recs)), shareLines("objective", byObj, len(recs))...)
	out = append(out, fmt.Sprintf("warm-started: %d of %d ops (100%%: every op installs the combopt solution)", len(recs), len(recs)),
		fmt.Sprintf("warm start already optimal (OBJ-DMAT/OBJ-DEL ops): %d", m.ctr.warmStartOptimal))
	return out
}

func (m *milpProve) prepare(int64) error { return nil }

func (m *milpProve) close() error { return nil }
