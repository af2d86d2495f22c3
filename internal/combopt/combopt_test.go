package combopt

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"letdma/internal/dma"
	"letdma/internal/let"
	"letdma/internal/model"
	"letdma/internal/timeutil"
)

func ms(v int64) timeutil.Time { return timeutil.Milliseconds(v) }

// pairSystem: p1, p2 on core0 write l1, l2 to consumer c on core1, equal
// periods: one bundle, two transfers.
func pairSystem(t *testing.T) *let.Analysis {
	t.Helper()
	sys := model.NewSystem(2)
	p1 := sys.MustAddTask("p1", ms(10), timeutil.Millisecond, 0)
	p2 := sys.MustAddTask("p2", ms(10), timeutil.Millisecond, 0)
	c := sys.MustAddTask("c", ms(10), timeutil.Millisecond, 1)
	sys.MustAddLabel("l1", 100, p1, c)
	sys.MustAddLabel("l2", 200, p2, c)
	sys.AssignRateMonotonicPriorities()
	a, err := let.Analyze(sys)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// chainSystem is the 3-task system used across packages.
func chainSystem(t *testing.T) *let.Analysis {
	t.Helper()
	sys := model.NewSystem(2)
	prod := sys.MustAddTask("prod", ms(5), timeutil.Millisecond, 0)
	fast := sys.MustAddTask("fast", ms(10), timeutil.Millisecond, 1)
	slow := sys.MustAddTask("slow", ms(20), timeutil.Millisecond, 1)
	sys.MustAddLabel("lA", 64, prod, fast, slow)
	sys.MustAddLabel("lB", 32, fast, prod)
	sys.AssignRateMonotonicPriorities()
	a, err := let.Analyze(sys)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// nestedSystem: p1 (10ms) and p2 (20ms) on core0 write to c (5ms) on core1.
// Signatures nest, so chain merging should collapse both labels into one
// bundle.
func nestedSystem(t *testing.T) *let.Analysis {
	t.Helper()
	sys := model.NewSystem(2)
	p1 := sys.MustAddTask("p1", ms(10), timeutil.Millisecond, 0)
	p2 := sys.MustAddTask("p2", ms(20), timeutil.Millisecond, 0)
	c := sys.MustAddTask("c", ms(5), timeutil.Millisecond, 1)
	sys.MustAddLabel("l1", 128, p1, c)
	sys.MustAddLabel("l2", 64, p2, c)
	sys.AssignRateMonotonicPriorities()
	a, err := let.Analyze(sys)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestExtractBundlesPair(t *testing.T) {
	a := pairSystem(t)
	bs := extractBundles(a)
	if len(bs) != 1 {
		t.Fatalf("got %d bundles, want 1", len(bs))
	}
	if len(bs[0].labels) != 2 || len(bs[0].writes) != 2 {
		t.Errorf("bundle = %+v", bs[0])
	}
}

func TestExtractBundlesChain(t *testing.T) {
	a := chainSystem(t)
	bs := extractBundles(a)
	if len(bs) != 2 {
		t.Fatalf("got %d bundles, want 2 (different consumer sets)", len(bs))
	}
}

func TestMergeChainsNested(t *testing.T) {
	a := nestedSystem(t)
	bs := extractBundles(a)
	if len(bs) != 2 {
		t.Fatalf("pre-merge: %d bundles, want 2", len(bs))
	}
	merged := mergeChains(bs)
	if len(merged) != 1 {
		t.Fatalf("post-merge: %d bundles, want 1", len(merged))
	}
	// Larger-signature label (l1, written every 10ms) must come first.
	if got := merged[0].labels[0]; got != a.Sys.LabelByName("l1").ID {
		t.Errorf("merged label order starts with label %d, want l1", got)
	}
}

func TestMergeChainsIncomparableNotMerged(t *testing.T) {
	// Two producers with incomparable signatures ({0,10} vs {0,15} within
	// H=30 via periods 10 and 15, consumer 5ms).
	sys := model.NewSystem(2)
	p1 := sys.MustAddTask("p1", ms(10), timeutil.Millisecond, 0)
	p2 := sys.MustAddTask("p2", ms(15), timeutil.Millisecond, 0)
	c := sys.MustAddTask("c", ms(5), timeutil.Millisecond, 1)
	sys.MustAddLabel("l1", 8, p1, c)
	sys.MustAddLabel("l2", 8, p2, c)
	sys.AssignRateMonotonicPriorities()
	a, err := let.Analyze(sys)
	if err != nil {
		t.Fatal(err)
	}
	merged := mergeChains(extractBundles(a))
	if len(merged) != 2 {
		t.Fatalf("incomparable signatures merged: %d bundles, want 2", len(merged))
	}
}

func TestSolvePairMinTransfers(t *testing.T) {
	a := pairSystem(t)
	res, err := Solve(a, dma.DefaultCostModel(), nil, dma.MinTransfers)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumTransfers != 2 {
		t.Errorf("NumTransfers = %d, want 2 (one write + one read)", res.NumTransfers)
	}
	if err := dma.Validate(a, dma.DefaultCostModel(), res.Layout, res.Sched, nil); err != nil {
		t.Errorf("solution invalid: %v", err)
	}
}

func TestSolveNestedMerges(t *testing.T) {
	a := nestedSystem(t)
	res, err := Solve(a, dma.DefaultCostModel(), nil, dma.MinTransfers)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumTransfers != 2 {
		t.Errorf("NumTransfers = %d, want 2 after chain merge", res.NumTransfers)
	}
	if res.Granularity != GranMerged {
		t.Errorf("granularity = %s, want merged", res.Granularity)
	}
}

func TestSolveChainDelayRatio(t *testing.T) {
	a := chainSystem(t)
	cm := dma.DefaultCostModel()
	res, err := Solve(a, cm, nil, dma.MinDelayRatio)
	if err != nil {
		t.Fatal(err)
	}
	if err := dma.Validate(a, cm, res.Layout, res.Sched, nil); err != nil {
		t.Fatalf("solution invalid: %v", err)
	}
	if !res.ExactOrder {
		t.Error("small instance should use exact ordering")
	}
	got := dma.MaxLatencyRatio(a, cm, res.Sched, dma.PerTaskReadiness)
	if got != res.Objective {
		t.Errorf("reported objective %g != recomputed %g", res.Objective, got)
	}
	// The exact order must not be worse than the heuristic or the per-comm
	// Giotto-like order.
	giotto := dma.GiottoPerCommSchedule(a)
	if g := dma.MaxLatencyRatio(a, cm, giotto, dma.PerTaskReadiness); res.Objective > g+1e-12 {
		t.Errorf("exact objective %g worse than naive per-comm %g", res.Objective, g)
	}
}

func TestSolveRespectsDeadlines(t *testing.T) {
	a := chainSystem(t)
	cm := dma.DefaultCostModel()
	fast := a.Sys.TaskByName("fast").ID
	// Tight deadline for fast: it must be among the earliest completions.
	gamma := dma.Deadlines{fast: timeutil.Microseconds(45)}
	res, err := Solve(a, cm, gamma, dma.NoObjective)
	if err != nil {
		t.Fatal(err)
	}
	lam := dma.Latency(a, cm, res.Sched, 0, fast, dma.PerTaskReadiness)
	if lam > timeutil.Microseconds(45) {
		t.Errorf("lambda(fast) = %v exceeds gamma", lam)
	}
}

func TestSolveInfeasibleDeadline(t *testing.T) {
	a := chainSystem(t)
	gamma := dma.Deadlines{a.Sys.TaskByName("fast").ID: timeutil.Microsecond}
	if _, err := Solve(a, dma.DefaultCostModel(), gamma, dma.NoObjective); err == nil {
		t.Fatal("expected infeasibility")
	}
}

func TestSolveInfeasibleConstraint10(t *testing.T) {
	// Periods so short that even one transfer cannot complete in time.
	sys := model.NewSystem(2)
	x := sys.MustAddTask("x", timeutil.Microseconds(10), 0, 0)
	y := sys.MustAddTask("y", timeutil.Microseconds(10), 0, 1)
	sys.MustAddLabel("l", 8, x, y)
	sys.AssignRateMonotonicPriorities()
	a, err := let.Analyze(sys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(a, dma.DefaultCostModel(), nil, dma.NoObjective); err == nil {
		t.Fatal("expected Constraint-10 infeasibility")
	}
}

func TestPrecedences(t *testing.T) {
	a := chainSystem(t)
	trs := perCommTransfers(a)
	pred := precedences(a, trs)
	// Transfers: [W(prod,lA), W(fast,lB), R(lA,fast), R(lA,slow), R(lB,prod)].
	if pred[0] != 0 || pred[1] != 0 {
		t.Errorf("writes must have no predecessors: %v", pred)
	}
	// R(lA,fast) needs W(prod,lA) (label) and W(fast,lB) (Property 1).
	if pred[2] != 0b00011 {
		t.Errorf("pred[R(lA,fast)] = %b, want 00011", pred[2])
	}
	// R(lA,slow) needs only the label write.
	if pred[3] != 0b00001 {
		t.Errorf("pred[R(lA,slow)] = %b, want 00001", pred[3])
	}
	// R(lB,prod) needs W(fast,lB) and W(prod,lA) (Property 1 for prod).
	if pred[4] != 0b00011 {
		t.Errorf("pred[R(lB,prod)] = %b, want 00011", pred[4])
	}
}

func TestOrderHeuristicRespectsPrecedence(t *testing.T) {
	a := chainSystem(t)
	trs := perCommTransfers(a)
	pred := precedences(a, trs)
	oo := buildOrderObjective(a, trs, nil, dma.MinDelayRatio)
	order := orderHeuristic(oo, pred, len(trs))
	seen := uint64(0)
	for _, g := range order {
		if pred[g]&^seen != 0 {
			t.Fatalf("order %v violates precedence at transfer %d", order, g)
		}
		seen |= 1 << uint(g)
	}
}

func TestExactNotWorseThanHeuristic(t *testing.T) {
	a := chainSystem(t)
	cm := dma.DefaultCostModel()
	trs := perCommTransfers(a)
	pred := precedences(a, trs)
	oo := buildOrderObjective(a, trs, nil, dma.MinDelayRatio)
	_, exactVal, _, ok := orderExact(transferCosts(a, cm, trs), oo, pred, math.Inf(1))
	if !ok {
		t.Fatal("exact order not found")
	}
	hs := applyOrder(trs, orderHeuristic(oo, pred, len(trs)))
	hVal, _ := evalOrder(a, cm, hs, oo)
	if exactVal > hVal+1e-12 {
		t.Errorf("exact %g worse than heuristic %g", exactVal, hVal)
	}
}

// evalOrder computes max_i lambda_i/denom_i for a finished schedule and
// whether all caps hold.
func evalOrder(a *let.Analysis, cm dma.CostModel, sched *dma.Schedule, oo *orderObjective) (float64, bool) {
	var worst float64
	okAll := true
	for i, id := range oo.tasks {
		lam := float64(dma.Latency(a, cm, sched, 0, id, dma.PerTaskReadiness))
		if lam > oo.cap[i] {
			okAll = false
		}
		if r := lam / oo.denom[i]; r > worst {
			worst = r
		}
	}
	return worst, okAll
}

// randomSystem builds a random feasible multicore system for fuzz-style
// validation.
func randomSystem(rng *rand.Rand) *model.System {
	cores := 2 + rng.Intn(2)
	sys := model.NewSystem(cores)
	periods := []timeutil.Time{ms(5), ms(10), ms(20), ms(40)}
	nTasks := cores + rng.Intn(4)
	tasks := make([]*model.Task, 0, nTasks)
	for i := 0; i < nTasks; i++ {
		core := model.CoreID(i % cores)
		p := periods[rng.Intn(len(periods))]
		tasks = append(tasks, sys.MustAddTask(taskName(i), p, 0, core))
	}
	nLabels := 1 + rng.Intn(6)
	for l := 0; l < nLabels; l++ {
		w := tasks[rng.Intn(len(tasks))]
		var readers []*model.Task
		for _, cand := range tasks {
			if cand.Core != w.Core && rng.Intn(2) == 0 {
				readers = append(readers, cand)
			}
		}
		if len(readers) == 0 {
			continue
		}
		sys.MustAddLabel(labelName(l), int64(8+rng.Intn(512)), w, readers...)
	}
	sys.AssignRateMonotonicPriorities()
	return sys
}

func taskName(i int) string  { return string(rune('A'+i)) + "task" }
func labelName(i int) string { return "lbl" + string(rune('a'+i)) }

// TestSolveRandomSystemsValid: every solution produced at every granularity
// must pass the independent validator, and merged transfer counts must not
// exceed bundled counts, which must not exceed per-comm counts.
func TestSolveRandomSystemsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cm := dma.DefaultCostModel()
	valid := 0
	for trial := 0; trial < 60; trial++ {
		sys := randomSystem(rng)
		a, err := let.Analyze(sys)
		if err != nil {
			continue // no inter-core labels this trial
		}
		var counts []int
		for _, gran := range []Granularity{GranMerged, GranBundled, GranPerComm} {
			res, err := SolveWithOptions(a, cm, nil, dma.MinDelayRatio, Options{Granularities: []Granularity{gran}})
			if err != nil {
				t.Fatalf("trial %d gran %s: %v", trial, gran, err)
			}
			if err := dma.Validate(a, cm, res.Layout, res.Sched, nil); err != nil {
				t.Fatalf("trial %d gran %s: invalid: %v", trial, gran, err)
			}
			counts = append(counts, res.NumTransfers)
		}
		if counts[0] > counts[1] || counts[1] > counts[2] {
			t.Fatalf("trial %d: transfer counts not monotone: %v", trial, counts)
		}
		valid++
	}
	if valid < 20 {
		t.Fatalf("only %d random systems had inter-core communication", valid)
	}
}

// TestTheorem1 checks the paper's Theorem 1 on random feasible solutions:
// the data-acquisition latency of every task at every activation instant
// t in T* never exceeds its latency at s0.
func TestTheorem1(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cm := dma.DefaultCostModel()
	checked := 0
	for trial := 0; trial < 40; trial++ {
		sys := randomSystem(rng)
		a, err := let.Analyze(sys)
		if err != nil {
			continue
		}
		res, err := Solve(a, cm, nil, dma.MinDelayRatio)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, task := range sys.Tasks {
			s0 := dma.Latency(a, cm, res.Sched, 0, task.ID, dma.PerTaskReadiness)
			for _, at := range a.Instants() {
				if int64(at)%int64(task.Period) != 0 {
					continue
				}
				if lam := dma.Latency(a, cm, res.Sched, at, task.ID, dma.PerTaskReadiness); lam > s0 {
					t.Fatalf("trial %d: Theorem 1 violated for %s: lambda(%v)=%v > lambda(s0)=%v",
						trial, task.Name, at, lam, s0)
				}
			}
		}
		checked++
	}
	if checked < 15 {
		t.Fatalf("only %d systems checked", checked)
	}
}

// orderExactDense is the ordering DP over all 2^n subsets that orderExact
// replaced, kept as the reference: orderExact must return the same order
// and the same value bits.
func orderExactDense(cost []int64, oo *orderObjective, pred []uint64) (order []int, val float64, ok bool) {
	n := len(cost)
	size := 1 << uint(n)
	dp := make([]float64, size)
	elapsed := make([]int64, size)
	parent := make([]int32, size)
	for i := range dp {
		dp[i] = math.Inf(1)
		parent[i] = -1
	}
	dp[0] = 0
	full := uint64(size - 1)
	for s := 0; s < size; s++ {
		if math.IsInf(dp[s], 1) {
			continue
		}
		su := uint64(s)
		avail := full &^ su
		for avail != 0 {
			g := bits.TrailingZeros64(avail)
			bit := uint64(1) << uint(g)
			avail &^= bit
			if pred[g]&^su != 0 {
				continue
			}
			ns := su | bit
			el := elapsed[s] + cost[g]
			val := dp[s]
			valid := true
			for _, ti := range oo.lastIn[g] {
				if oo.req[ti]&^ns != 0 {
					continue
				}
				lam := float64(el)
				if lam > oo.cap[ti] {
					valid = false
					break
				}
				if r := lam / oo.denom[ti]; r > val {
					val = r
				}
			}
			if !valid {
				continue
			}
			if val < dp[ns]-1e-15 {
				dp[ns] = val
				elapsed[ns] = el
				parent[ns] = int32(g)
			}
		}
	}
	if math.IsInf(dp[size-1], 1) {
		return nil, 0, false
	}
	order = make([]int, 0, n)
	for s := size - 1; s != 0; {
		g := int(parent[s])
		order = append(order, g)
		s &^= 1 << uint(g)
	}
	slices.Reverse(order)
	return order, dp[size-1], true
}
