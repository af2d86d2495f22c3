package milp

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the FastSearch engine (Params.FastSearch): a
// work-stealing branch and bound that trades the depth-first engine's
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
//   - Each node runs the same searchState steps as in the depth-first
//     engine (atLimit, fathomed, solveNode, expand), against the currently
//     published cutoff. With one worker the search visits the same nodes
//     in the same order as the depth-first engine.
//   - Workers proceed independently; termination is detected by an atomic
//     count of unfinished nodes.
//
// The returned status and optimal objective are exact — every pruning step
// is justified by the same bound arithmetic as the depth-first engine, and
// incumbents pass the same CheckFeasible gate — but with several workers
// the trajectory (node order, counters, and which of several tied optima is
// returned) depends on goroutine scheduling. The depth-first engine
// replays; FastSearch certifies: audited runs go through
// verify.CheckOptimal.

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
// when empty. It is a snapshot for steal-victim selection; the queue may
// change the instant the lock is released.
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

// fastWorker is one worker's private accumulator, merged after the join,
// plus its node-solve workspace, whose stats also count its steals.
// Workers only ever touch their own slot, so the slice is race-free by
// construction (the pre-indexed slot discipline).
type fastWorker struct {
	iters int
	lp    simplexState // the worker's node-solve workspace
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
	// was a limit (deadline, node budget, interrupt) rather than
	// exhaustion; unbounded records a proven unbounded relaxation.
	stop      atomic.Bool
	hitLimit  atomic.Bool
	unbounded atomic.Bool
	logMu     sync.Mutex
}

// cutoff returns the published incumbent objective, +Inf when none.
func (e *fastEngine) cutoff() float64 {
	if inc := e.inc.Load(); inc != nil {
		return inc.obj
	}
	return math.Inf(1)
}

// tryPublish installs the snapped, feasible candidate (obj, x) as the
// incumbent iff it is strictly better than the published one at the moment
// of the swap. The CAS loop makes the publication monotonic: a concurrent
// better publication simply wins and this candidate is dropped.
func (e *fastEngine) tryPublish(obj float64, x []float64) bool {
	pub := &fastIncumbent{obj: obj, x: x}
	for {
		cur := e.inc.Load()
		if cur != nil && obj >= cur.obj-1e-12 {
			return false
		}
		if e.inc.CompareAndSwap(cur, pub) {
			return true
		}
	}
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
		ws.lp.stats.Steals++
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
		e.process(id, node, ws)
	}
}

// process expands one node with the shared searchState steps. A node cut
// short by a limit or an undecided LP goes back on the queue so the final
// bound still accounts for it. The node's inflight slot is released only
// after any children are registered, so inflight can never transiently hit
// zero while work remains.
func (e *fastEngine) process(id int, node *bbNode, ws *fastWorker) {
	st := e.st
	p := st.p
	if st.atLimit(int(e.nodes.Load())) {
		e.requestStop(true)
		e.deques[id].push(node)
		return
	}
	e.nodes.Add(1)
	defer e.inflight.Add(-1)

	if fathomed(node, e.cutoff()) {
		return
	}
	res := st.solveNode(&ws.lp, node, e.cutoff())
	ws.iters += res.iters
	switch res.status {
	case lpTimeLimit, lpIterLimit, lpNumerical:
		// The relaxation is undecided: the node stays open (re-queued,
		// keeping its inflight slot) and the solve reports an early stop.
		st.noteStop(stopCauseOfLP(res.status))
		e.requestStop(true)
		e.inflight.Add(1)
		e.deques[id].push(node)
		return
	case lpCutoff, lpInfeasible:
		return
	case lpUnbounded:
		if len(st.intVars) == 0 || node.depth == 0 {
			e.unbounded.Store(true)
			e.requestStop(false)
		}
		return
	}

	ex := st.expand(node, res, e.cutoff())
	switch {
	case ex.first != nil:
		// Registered in inflight BEFORE the parent is released; the
		// preferred child is pushed last, so the owner pops it first.
		e.inflight.Add(2)
		e.deques[id].push(ex.later)
		e.deques[id].push(ex.first)
	case ex.cand != nil && e.tryPublish(ex.candObj, ex.cand):
		if p.Log != nil {
			e.logMu.Lock()
			logf(p.Log, "fast: new incumbent obj=%.6g\n", st.objSign*ex.candObj)
			e.logMu.Unlock()
		}
	}
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

	e := &fastEngine{st: st, deques: make([]*fastDeque, workers)}
	for i := range e.deques {
		e.deques[i] = &fastDeque{}
	}
	if st.incumbent != nil {
		e.inc.Store(&fastIncumbent{obj: st.incObj, x: st.incumbent})
	}
	e.inflight.Store(1)
	e.deques[0].push(&bbNode{lo: st.lo0, hi: st.hi0, bound: math.Inf(-1), depth: 0})

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
	var k KernelStats
	for i := range locals {
		k.add(locals[i].lp.stats)
		iters += locals[i].iters
	}
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
	logf(p.Log, "fast: workers=%d steals=%d\n", workers, k.Steals)
	return st.finish(ob, nodes, iters, hitLimit, k), nil
}
