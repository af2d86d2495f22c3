package milp

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the FastSearch engine (Params.FastSearch): a
// work-stealing branch and bound that trades the deterministic engines'
// replay-identity for throughput.
//
//   - Every worker owns a deque: it pushes and pops children at the tail
//     (depth-first, preferred child on top), and idle workers steal from
//     other deques. Steals are best-bound biased: the thief picks the victim
//     whose queue holds the globally smallest relaxation bound and takes
//     that node, so stolen work tends to tighten the global bound instead of
//     duplicating deep dives.
//   - The incumbent is a lock-free atomic pointer published by monotonic
//     compare-and-swap: a candidate is installed only while it is strictly
//     better than the currently published one, so the incumbent objective
//     only ever decreases (in minimization sense) no matter how races
//     resolve, and readers always see a fully formed (obj, x) pair.
//   - Nodes are solved by the same searchState.solveNode as in the
//     deterministic engines: warm from the parent basis, against the
//     currently published cutoff.
//   - There is no epoch barrier: workers proceed independently and
//     termination is detected by an atomic count of unfinished nodes.
//
// The returned status and optimal objective are exact — every pruning step
// is justified by the same bound arithmetic as the deterministic engines,
// and incumbents pass the same CheckFeasible gate — but the trajectory
// (node order, counters, and which of several tied optima is returned)
// depends on goroutine scheduling. Deterministic engines replay; FastSearch
// certifies: audited runs go through verify.CheckOptimal.

// fastIncumbent is one published incumbent: immutable after publication, so
// a Load is always a consistent (obj, x) pair.
type fastIncumbent struct {
	obj float64 // minimization objective
	x   []float64
}

// fastDeque is one worker's node queue. The owner pushes and pops at the
// tail; thieves remove the best-bound node wherever it sits. A plain mutex
// guards it: the solver's unit of work (an LP solve) is ~10^4-10^6x the cost
// of the critical section, so a lock-free deque would buy nothing here.
type fastDeque struct {
	mu    sync.Mutex
	nodes []*bbNode
}

func (d *fastDeque) push(n *bbNode) {
	d.mu.Lock()
	d.nodes = append(d.nodes, n)
	d.mu.Unlock()
}

// pop removes the tail node (the owner's depth-first preference), nil when
// empty.
func (d *fastDeque) pop() *bbNode {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.nodes) == 0 {
		return nil
	}
	n := d.nodes[len(d.nodes)-1]
	d.nodes[len(d.nodes)-1] = nil
	d.nodes = d.nodes[:len(d.nodes)-1]
	return n
}

// minBound returns the smallest relaxation bound among queued nodes, +Inf
// when empty. It is a snapshot for steal-victim selection and the global
// bound estimate; the queue may change the instant the lock is released.
func (d *fastDeque) minBound() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	b := math.Inf(1)
	for _, n := range d.nodes {
		if n.bound < b {
			b = n.bound
		}
	}
	return b
}

// stealBest removes and returns the node with the smallest bound, nil when
// empty.
func (d *fastDeque) stealBest() *bbNode {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.nodes) == 0 {
		return nil
	}
	best := 0
	for i, n := range d.nodes {
		if n.bound < d.nodes[best].bound {
			best = i
		}
	}
	n := d.nodes[best]
	d.nodes[best] = d.nodes[len(d.nodes)-1]
	d.nodes[len(d.nodes)-1] = nil
	d.nodes = d.nodes[:len(d.nodes)-1]
	return n
}

// drain removes and returns all queued nodes.
func (d *fastDeque) drain() []*bbNode {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := d.nodes
	d.nodes = nil
	return out
}

// fastWorker is one worker's private accumulator, merged after the join.
// Workers only ever touch their own slot, so the slice is race-free by
// construction (the pre-indexed slot discipline).
type fastWorker struct {
	stats KernelStats
	iters int
}

// fastEngine is the shared state of one FastSearch solve.
type fastEngine struct {
	st     *searchState // immutable search context after prepSearch
	deques []*fastDeque
	// inc is the lock-free incumbent; see tryPublish for the CAS protocol.
	inc atomic.Pointer[fastIncumbent]
	// inflight counts pushed-but-unfinished nodes: children are added
	// before their parent is released, so 0 means the tree is exhausted.
	inflight atomic.Int64
	// nodes counts expanded nodes (the MaxNodes budget).
	nodes atomic.Int64
	// stop orders all workers to wind down; hitLimit records that the stop
	// was a limit (deadline, node budget, interrupt, gap) rather than
	// exhaustion; unbounded records a proven unbounded relaxation.
	stop      atomic.Bool
	hitLimit  atomic.Bool
	unbounded atomic.Bool
	// curBound[w] holds math.Float64bits of the bound of the node worker w
	// is currently processing (+Inf when idle), so the global bound snapshot
	// can account for in-flight work.
	curBound  []atomic.Uint64
	rootBasis atomic.Pointer[Basis]
	logMu     sync.Mutex
}

// cutoff returns the published incumbent objective, +Inf when none.
func (e *fastEngine) cutoff() float64 {
	if inc := e.inc.Load(); inc != nil {
		return inc.obj
	}
	return math.Inf(1)
}

// tryPublish snaps the integral LP point x, verifies feasibility against the
// original model, and installs it as the incumbent iff it is strictly better
// than the published one at the moment of the swap. The CAS loop makes the
// publication monotonic: a concurrent better publication simply wins and
// this candidate is dropped. Returns the candidate's objective and whether
// it was installed.
func (e *fastEngine) tryPublish(x []float64) (float64, bool) {
	st := e.st
	cand := append([]float64(nil), x...)
	for _, id := range st.intVars {
		cand[id] = math.Round(cand[id])
	}
	if err := st.m.CheckFeasible(cand, 1e-5); err != nil {
		return 0, false
	}
	obj := st.minObj(cand)
	pub := &fastIncumbent{obj: obj, x: cand}
	for {
		cur := e.inc.Load()
		if cur != nil && obj >= cur.obj-1e-12 {
			return obj, false
		}
		if e.inc.CompareAndSwap(cur, pub) {
			return obj, true
		}
	}
}

// snapshotBound estimates the global lower bound: the minimum over all
// queued nodes and all in-flight nodes. Used for GapTol early stopping and
// for the final BestBound after an early stop; both uses tolerate the
// snapshot being momentarily stale because a node's bound never changes once
// created and pruning only removes nodes whose bound is above the incumbent.
func (e *fastEngine) snapshotBound() float64 {
	b := math.Inf(1)
	for _, d := range e.deques {
		if m := d.minBound(); m < b {
			b = m
		}
	}
	for i := range e.curBound {
		if v := math.Float64frombits(e.curBound[i].Load()); v < b {
			b = v
		}
	}
	return b
}

// requestStop orders every worker to wind down at its next node boundary.
func (e *fastEngine) requestStop(limit bool) {
	if limit {
		e.hitLimit.Store(true)
	}
	e.stop.Store(true)
}

// next returns the worker's next node: its own tail first (depth-first),
// otherwise a best-bound-biased steal — the victim with the smallest queued
// bound loses that node. nil when every queue is empty.
func (e *fastEngine) next(id int, ws *fastWorker) *bbNode {
	if n := e.deques[id].pop(); n != nil {
		return n
	}
	best, bestBound := -1, math.Inf(1)
	for v := range e.deques {
		if v == id {
			continue
		}
		// Every queued node has a finite or -Inf bound, so +Inf means empty.
		if b := e.deques[v].minBound(); b < bestBound {
			best, bestBound = v, b
		}
	}
	if best == -1 {
		return nil
	}
	if n := e.deques[best].stealBest(); n != nil {
		ws.stats.Steals++
		return n
	}
	return nil
}

// run is one worker's main loop: pop or steal, process, repeat until the
// tree is exhausted (inflight hits zero) or a stop is requested. The
// cooperative Params.Interrupt check lives inside process, so every worker
// polls it at its own node boundaries — there is no dispatcher to do it.
func (e *fastEngine) run(id int, ws *fastWorker) {
	idle := 0
	for {
		if e.stop.Load() {
			return
		}
		node := e.next(id, ws)
		if node == nil {
			if e.inflight.Load() == 0 {
				return
			}
			// Another worker is still expanding; its children may land any
			// moment. Yield, then back off to a short sleep so a long LP
			// solve elsewhere does not turn idle workers into busy spinners.
			if idle++; idle < 8 {
				runtime.Gosched()
			} else {
				time.Sleep(20 * time.Microsecond)
			}
			continue
		}
		idle = 0
		e.curBound[id].Store(math.Float64bits(node.bound))
		e.process(id, node, ws)
		e.curBound[id].Store(math.Float64bits(math.Inf(1)))
	}
}

// process expands one node, mirroring the sequential engine's per-node
// logic: limits, incumbent prune, relaxation solve (warm when a parent basis
// exists), fathom/branch/publish. The node's inflight slot is released only
// after any children are registered, so inflight can never transiently hit
// zero while work remains.
func (e *fastEngine) process(id int, node *bbNode, ws *fastWorker) {
	st := e.st
	p := st.p

	// Limits are checked at the node boundary, like the sequential engine's
	// loop head. A limited node goes back on the queue so the final bound
	// still accounts for it. The interrupt is polled first so a closed
	// channel is reported as StopInterrupt even when a budget expired in
	// the same instant — the anytime contract the letdmad deadline and the
	// SIGINT/SIGTERM paths rely on.
	if stopRequested(p.Interrupt) {
		st.noteStop(StopInterrupt)
		e.requestStop(true)
		e.deques[id].push(node)
		return
	}
	if (p.MaxNodes > 0 && e.nodes.Load() >= int64(p.MaxNodes)) ||
		(!st.deadline.IsZero() && time.Now().After(st.deadline)) {
		st.noteStop(StopLimit)
		e.requestStop(true)
		e.deques[id].push(node)
		return
	}
	e.nodes.Add(1)

	if node.bound > e.cutoff()-1e-9 && !math.IsInf(node.bound, -1) {
		e.inflight.Add(-1)
		return
	}

	nr := st.solveNode(node, e.cutoff())
	ws.stats.add(nr.stats)
	res := nr.lpSolution
	ws.iters += res.iters
	switch res.status {
	case lpTimeLimit, lpIterLimit, lpNumerical:
		// The relaxation is undecided (see the sequential engine); the node
		// stays open and the solve reports an early stop.
		st.noteStop(stopCauseOfLP(res.status))
		e.requestStop(true)
		e.deques[id].push(node)
		return
	case lpCutoff, lpInfeasible:
		e.inflight.Add(-1)
		return
	case lpUnbounded:
		if len(st.intVars) == 0 || node.depth == 0 {
			e.unbounded.Store(true)
			e.requestStop(false)
		}
		e.inflight.Add(-1)
		return
	}
	if node.depth == 0 {
		e.rootBasis.Store(res.basis)
	}

	lpObj := res.obj
	if st.intObjGCD > 0 {
		lpObj = roundBoundUp(lpObj, st.intObjGCD, st.objOffset)
	}
	if lpObj > e.cutoff()-1e-9 {
		e.inflight.Add(-1)
		return
	}

	branchVar := st.pickBranchVar(res.x)
	if branchVar == -1 {
		if obj, installed := e.tryPublish(res.x); installed {
			if p.Log != nil {
				e.logMu.Lock()
				logf(p.Log, "fast: new incumbent obj=%.6g\n", st.objSign*obj)
				e.logMu.Unlock()
			}
			if p.GapTol > 0 {
				if ob := math.Min(e.snapshotBound(), lpObj); relGap(obj, ob) <= p.GapTol {
					st.noteStop(StopGap)
					e.requestStop(true)
				}
			}
		}
		e.inflight.Add(-1)
		return
	}

	// Branch: children inherit the rounded bound and this node's basis.
	// Registered in inflight BEFORE the parent is released.
	xf := res.x[branchVar]
	mk := func(isUp bool) *bbNode {
		nl := append([]float64(nil), node.lo...)
		nh := append([]float64(nil), node.hi...)
		if isUp {
			nl[branchVar] = math.Ceil(xf)
		} else {
			nh[branchVar] = math.Floor(xf)
		}
		return &bbNode{lo: nl, hi: nh, bound: lpObj, depth: node.depth + 1, pbasis: res.basis}
	}
	e.inflight.Add(2)
	// Preferred child (nearer integer) pushed last: the owner pops it first.
	if xf-math.Floor(xf) <= 0.5 {
		e.deques[id].push(mk(true))
		e.deques[id].push(mk(false))
	} else {
		e.deques[id].push(mk(false))
		e.deques[id].push(mk(true))
	}
	e.inflight.Add(-1)
}

// solveFast is the FastSearch entry point (Params.FastSearch).
func solveFast(m *Model, p Params) (*Solution, error) {
	start := time.Now()
	workers := p.Workers
	if workers < 1 {
		workers = 1
	}
	st, early, err := prepSearch(m, p, start)
	if early != nil || err != nil {
		return early, err
	}

	e := &fastEngine{
		st:       st,
		deques:   make([]*fastDeque, workers),
		curBound: make([]atomic.Uint64, workers),
	}
	for i := range e.deques {
		e.deques[i] = &fastDeque{}
		e.curBound[i].Store(math.Float64bits(math.Inf(1)))
	}
	if st.incumbent != nil {
		e.inc.Store(&fastIncumbent{obj: st.incObj, x: st.incumbent})
	}
	e.inflight.Store(1)
	e.deques[0].push(&bbNode{lo: st.lo0, hi: st.hi0, bound: math.Inf(-1), depth: 0, pbasis: p.WarmBasis})

	locals := make([]fastWorker, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			e.run(id, &locals[id])
		}(w)
	}
	wg.Wait()

	nodes := int(e.nodes.Load())
	iters := 0
	for i := range locals {
		st.stats.add(locals[i].stats)
		iters += locals[i].iters
	}
	st.rootBasis = e.rootBasis.Load()
	if e.unbounded.Load() {
		return &Solution{
			Status: StatusUnbounded, Nodes: nodes, SimplexIters: iters,
			Runtime: time.Since(start), Gap: math.Inf(1),
		}, nil
	}
	if inc := e.inc.Load(); inc != nil {
		st.incumbent, st.incObj = inc.x, inc.obj
	}

	hitLimit := e.hitLimit.Load()
	// Leftover nodes (early stop) carry the proven bound. An exhausted tree
	// leaves every deque empty and the bound at +Inf: optimality.
	ob := math.Inf(1)
	for _, d := range e.deques {
		for _, n := range d.drain() {
			if n.bound < ob {
				ob = n.bound
			}
		}
	}
	logf(p.Log, "fast: workers=%d steals=%d\n", workers, st.stats.Steals)
	return st.finish(ob, nodes, iters, hitLimit), nil
}
