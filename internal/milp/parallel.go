package milp

import (
	"math"
	"sort"
	"sync"
	"time"
)

// epochBatch is the number of open nodes dispatched per epoch. It is a
// fixed constant, deliberately NOT a function of Params.Workers: the
// traversal — and therefore the incumbent, bound, node and iteration
// counts — must be identical for every worker count. Workers only sets how
// many of the batch's LP relaxations are in flight at once.
const epochBatch = 16

// solveEpochs is the epoch-synchronized branch-and-bound engine
// (Params.Workers >= 1). Each epoch it
//
//  1. prunes the open list against the current incumbent (deterministic:
//     the incumbent only changes between epochs and inside the ordered
//     merge),
//  2. sorts the open list by (relaxation bound, node sequence) and
//     dispatches the first epochBatch nodes,
//  3. resolves the dispatched nodes concurrently — solveNode is a pure
//     function of (model, bounds, parent basis, dispatch-time incumbent),
//     so each result is independent of which worker computes it — and
//  4. merges the results strictly in dispatch order: incumbent updates,
//     pruning of later batch members, and child creation all happen at
//     this single merge point, never through a shared atomic.
//
// Because dispatch order, merge order and the epoch size are all fixed,
// the search trajectory is invariant under both the worker count and the
// goroutine schedule; only wall-clock time changes. The one caveat is a
// TimeLimit: where the deadline cuts the search is inherently wall-clock
// dependent, exactly as in the sequential engine.
func solveEpochs(m *Model, p Params) (*Solution, error) {
	start := time.Now()
	st, early, err := prepSearch(m, p, start)
	if early != nil || err != nil {
		return early, err
	}

	nodes := 0
	iters := 0
	seq := 0
	open := []*bbNode{{lo: st.lo0, hi: st.hi0, bound: math.Inf(-1), depth: 0, seq: seq, pbasis: p.WarmBasis}}
	hitLimit := false

	for len(open) > 0 && !hitLimit {
		if !st.deadline.IsZero() && time.Now().After(st.deadline) {
			st.noteStop(StopLimit)
			hitLimit = true
			break
		}
		if stopRequested(p.Interrupt) {
			st.noteStop(StopInterrupt)
			hitLimit = true
			break
		}
		// Prune against the incumbent before dispatch. Pruned nodes count
		// as explored, mirroring the sequential engine's pop-then-prune.
		kept := open[:0]
		for _, n := range open {
			if n.bound > st.incObj-1e-9 && !math.IsInf(n.bound, -1) {
				nodes++
				continue
			}
			kept = append(kept, n)
		}
		open = kept
		if len(open) == 0 {
			break
		}
		// Best-bound dispatch order, FIFO by node sequence among ties.
		sort.Slice(open, func(i, j int) bool {
			if open[i].bound < open[j].bound {
				return true
			}
			if open[i].bound > open[j].bound {
				return false
			}
			return open[i].seq < open[j].seq
		})

		batch := len(open)
		if batch > epochBatch {
			batch = epochBatch
		}
		if p.MaxNodes > 0 {
			if remaining := p.MaxNodes - nodes; remaining <= 0 {
				st.noteStop(StopLimit)
				hitLimit = true
				break
			} else if batch > remaining {
				batch = remaining
			}
		}
		dispatched := open[:batch]
		open = open[batch:]

		results := solveBatch(st, dispatched, p.Workers)

		// Ordered merge.
		for i := 0; i < len(dispatched); i++ {
			if hitLimit {
				// Unmerged batch members stay open so the final bound
				// still accounts for them.
				open = append(open, dispatched[i:]...)
				break
			}
			node, res := dispatched[i], results[i]
			nodes++
			iters += res.iters
			st.stats.add(res.stats)
			switch res.status {
			case lpTimeLimit, lpIterLimit, lpNumerical:
				st.noteStop(stopCauseOfLP(res.status))
				hitLimit = true
				continue
			case lpCutoff, lpInfeasible:
				// lpCutoff: the warm solve fathomed the node against the
				// incumbent as of dispatch time, which is never better than
				// the merge-time incumbent — a full solve would have been
				// pruned too.
				continue
			case lpUnbounded:
				if len(st.intVars) == 0 || node.depth == 0 {
					return &Solution{
						Status: StatusUnbounded, Nodes: nodes, SimplexIters: iters,
						Runtime: time.Since(start), Gap: math.Inf(1),
					}, nil
				}
				continue
			}
			if node.depth == 0 {
				st.rootBasis = res.basis
			}
			lpObj := res.obj
			if lpObj > st.incObj-1e-9 {
				continue // pruned by an incumbent found earlier in the merge
			}
			if st.intObjGCD > 0 {
				lpObj = roundBoundUp(lpObj, st.intObjGCD, st.objOffset)
				if lpObj > st.incObj-1e-9 {
					continue
				}
			}
			branchVar := st.pickBranchVar(res.x)
			if branchVar == -1 {
				if st.tryIncumbent(res.x) {
					logf(p.Log, "node %d: new incumbent obj=%.6g\n", nodes, st.objSign*st.incObj)
				}
				continue
			}
			// Branch. The preferred child (nearer integer) gets the smaller
			// sequence number, so it is dispatched first among equal bounds
			// — the analogue of the sequential engine's push order.
			xf := res.x[branchVar]
			mk := func(isUp bool) *bbNode {
				nl := append([]float64(nil), node.lo...)
				nh := append([]float64(nil), node.hi...)
				if isUp {
					nl[branchVar] = math.Ceil(xf)
				} else {
					nh[branchVar] = math.Floor(xf)
				}
				seq++
				return &bbNode{lo: nl, hi: nh, bound: lpObj, depth: node.depth + 1, seq: seq, pbasis: res.basis}
			}
			if xf-math.Floor(xf) <= 0.5 {
				open = append(open, mk(false), mk(true))
			} else {
				open = append(open, mk(true), mk(false))
			}
		}

		// Gap-based termination is checked once per epoch, after the merge,
		// so it too is independent of the worker count.
		if p.GapTol > 0 && st.incumbent != nil && !hitLimit {
			if relGap(st.incObj, boundOf(open)) <= p.GapTol {
				st.noteStop(StopGap)
				hitLimit = true
			}
		}
	}

	ob := math.Inf(1)
	if len(open) > 0 {
		ob = boundOf(open)
	}
	return st.finish(ob, nodes, iters, hitLimit), nil
}

// solveBatch resolves the dispatched nodes (warm solve, cold solve as the
// fallback; see solveNode) with up to `workers` goroutines and returns the
// results indexed like the batch. solveNode only reads search state that is
// written between batches, so concurrent execution is race-free and the
// results are independent of which worker computes them.
func solveBatch(st *searchState, batch []*bbNode, workers int) []nodeResult {
	results := make([]nodeResult, len(batch))
	if workers > len(batch) {
		workers = len(batch)
	}
	if workers <= 1 {
		for i, n := range batch {
			results[i] = st.solveNode(n, st.incObj)
		}
		return results
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = st.solveNode(batch[i], st.incObj)
			}
		}()
	}
	for i := range batch {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// boundOf returns the minimum relaxation bound among the open nodes.
func boundOf(open []*bbNode) float64 {
	b := math.Inf(1)
	for _, n := range open {
		if n.bound < b {
			b = n.bound
		}
	}
	return b
}
