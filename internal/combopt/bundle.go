// Package combopt is a specialized combinatorial optimizer for the LET-DMA
// allocation and scheduling problem. It complements the faithful MILP
// formulation in internal/letopt with a fast constructive approach:
//
//  1. Labels are grouped into *bundles*: maximal sets of labels with the
//     same producer core, the same consumer-task set, and identical
//     activation signatures on every involved direction class. Labels of a
//     bundle can always share DMA transfers: at every instant of T* they
//     are either all active or all inactive, so contiguity (Constraint 6)
//     reduces to laying the bundle out as one run.
//  2. Bundles with the same producer core and consumer-task set whose
//     signatures form a chain under set inclusion on every class are merged
//     ("onion" layout): at any instant the active labels are a prefix of
//     the merged run, preserving contiguity for strict subsets.
//  3. The memory layout lays each family run contiguously in the producer's
//     local memory, the global memory, and each consumer's local memory.
//  4. Transfer order is chosen by an exact dynamic program over subsets
//     (minimizing the chosen objective subject to Properties 1-2 and the
//     data-acquisition deadlines) when the transfer count allows it, and by
//     a deadline-pressure list-scheduling heuristic otherwise.
//
// Every solution is checked with dma.Validate by the callers and tests; the
// construction is conservative by design (bundle granularity may cost a few
// extra transfers compared to the MILP optimum).
package combopt

import (
	"strconv"

	"letdma/internal/dma"
	"letdma/internal/let"
	"letdma/internal/model"
	"letdma/internal/ordered"
	"letdma/internal/timeutil"
)

// bundle is a set of labels sharing producer core, consumer-task set and
// per-class activation signatures, plus the communications that move them.
type bundle struct {
	prodCore  model.CoreID
	consumers []model.TaskID // sorted
	labels    []model.LabelID
	writes    []int                  // comm indices, aligned with labels
	reads     map[model.TaskID][]int // per consumer task, aligned with labels

	// sigSets holds the activation signature per class as a set, for the
	// inclusion tests of chain merging: index 0 is the write class, then
	// one per consumer task in order.
	sigSets []map[timeutil.Time]bool

	// Chain bookkeeping, set on merged bundles only: the bundles at the
	// large-signature (head) and small-signature (tail) ends of the chain.
	chainHeadBundle *bundle
	chainTail       *bundle
}

// extractBundles partitions the communications of a into bundles.
func extractBundles(a *let.Analysis) []*bundle {
	bymap := make(map[string]*bundle)
	var out []*bundle
	var key []byte
	for _, sl := range sortedShared(a) {
		lid := sl.Label.ID
		wz := a.CommIndex(let.Comm{Kind: let.Write, Task: sl.Producer.ID, Label: lid})
		consumers := make([]model.TaskID, 0, len(sl.Consumers))
		for _, c := range sl.Consumers {
			consumers = append(consumers, c.ID)
		}
		// The key identifies the producer core, the consumer-task set and
		// the activation signature of every class: "p<core>|c<ids>|s<sigs>"
		// with comma-separated numbers and ';' between signatures.
		key = strconv.AppendInt(append(key[:0], 'p'), int64(sl.Producer.Core), 10)
		key = append(key, "|c"...)
		for i, c := range consumers {
			if i > 0 {
				key = append(key, ',')
			}
			key = strconv.AppendInt(key, int64(c), 10)
		}
		key = appendSig(append(key, "|s"...), a.Activations(wz))
		rz := make([]int, 0, len(consumers))
		for _, c := range consumers {
			z := a.CommIndex(let.Comm{Kind: let.Read, Task: c, Label: lid})
			rz = append(rz, z)
			key = appendSig(append(key, ';'), a.Activations(z))
		}
		b, ok := bymap[string(key)]
		if !ok {
			sigSets := []map[timeutil.Time]bool{sigSet(a.Activations(wz))}
			for _, z := range rz {
				sigSets = append(sigSets, sigSet(a.Activations(z)))
			}
			b = &bundle{
				prodCore:  sl.Producer.Core,
				consumers: consumers,
				reads:     make(map[model.TaskID][]int),
				sigSets:   sigSets,
			}
			bymap[string(key)] = b
			out = append(out, b)
		}
		b.labels = append(b.labels, lid)
		b.writes = append(b.writes, wz)
		for i, c := range consumers {
			b.reads[c] = append(b.reads[c], rz[i])
		}
	}
	return out
}

// sortedShared returns the shared labels in label-ID order.
func sortedShared(a *let.Analysis) []model.SharedLabel {
	out := make([]model.SharedLabel, 0, len(a.Shared))
	for _, id := range ordered.Keys(a.Shared) {
		out = append(out, a.Shared[id])
	}
	return out
}

// appendSig appends an activation signature to a bundle key as
// comma-separated instants.
func appendSig(key []byte, ts []timeutil.Time) []byte {
	for i, t := range ts {
		if i > 0 {
			key = append(key, ',')
		}
		key = strconv.AppendInt(key, int64(t), 10)
	}
	return key
}

func sigSet(ts []timeutil.Time) map[timeutil.Time]bool {
	s := make(map[timeutil.Time]bool, len(ts))
	for _, t := range ts {
		s[t] = true
	}
	return s
}

// sameGroupKey reports whether two bundles share producer core and
// consumer-task set (the precondition for chain merging).
func sameGroupKey(x, y *bundle) bool {
	if x.prodCore != y.prodCore || len(x.consumers) != len(y.consumers) {
		return false
	}
	for i := range x.consumers {
		if x.consumers[i] != y.consumers[i] {
			return false
		}
	}
	return true
}

// dominates reports whether x's signatures are supersets of y's on every
// class: then y's labels may follow x's in an onion layout.
func dominates(x, y *bundle) bool {
	for i := range x.sigSets {
		for t := range y.sigSets[i] {
			if !x.sigSets[i][t] {
				return false
			}
		}
	}
	return true
}

// mergeChains greedily merges bundles with the same group key whose
// signatures form chains under inclusion. The labels of a merged bundle are
// ordered from largest signature to smallest, so that at any instant the
// active labels are a prefix of the run.
func mergeChains(bundles []*bundle) []*bundle {
	var out []*bundle
	for _, b := range bundles {
		placed := false
		for _, m := range out {
			if !sameGroupKey(m, b) {
				continue
			}
			// b must be comparable with the chain: since m's labels are
			// ordered by decreasing signature, b must dominate the last
			// element or be dominated by it; we track chain membership by
			// keeping m.sigSets as the chain head's (largest) signature and
			// requiring total comparability with the recorded chain tail.
			if m.chainTail == nil {
				continue
			}
			switch {
			case dominates(m.chainTail, b):
				m.appendBundle(b)
				placed = true
			case dominates(b, m.chainHeadBundle):
				m.prependBundle(b)
				placed = true
			}
			if placed {
				break
			}
		}
		if !placed {
			out = append(out, b.clone())
		}
	}
	return out
}

// clone deep-copies the slices and maps of b so that merged chains never
// alias the original bundles' storage.
func (b *bundle) clone() *bundle {
	nb := &bundle{
		prodCore:        b.prodCore,
		consumers:       append([]model.TaskID(nil), b.consumers...),
		labels:          append([]model.LabelID(nil), b.labels...),
		writes:          append([]int(nil), b.writes...),
		reads:           make(map[model.TaskID][]int, len(b.reads)),
		sigSets:         b.sigSets,
		chainHeadBundle: b,
		chainTail:       b,
	}
	for c, rs := range b.reads {
		nb.reads[c] = append([]int(nil), rs...)
	}
	return nb
}

// appendBundle attaches y's labels after m's (y has smaller signatures).
func (m *bundle) appendBundle(y *bundle) {
	m.labels = append(m.labels, y.labels...)
	m.writes = append(m.writes, y.writes...)
	for c, rs := range y.reads {
		m.reads[c] = append(m.reads[c], rs...)
	}
	m.chainTail = y
}

// prependBundle attaches y's labels before m's (y has larger signatures).
func (m *bundle) prependBundle(y *bundle) {
	m.labels = append(append([]model.LabelID(nil), y.labels...), m.labels...)
	m.writes = append(append([]int(nil), y.writes...), m.writes...)
	for c, rs := range y.reads {
		m.reads[c] = append(append([]int(nil), rs...), m.reads[c]...)
	}
	m.chainHeadBundle = y
}

// buildLayout lays out the bundles' objects: each bundle is one run in the
// global memory, in the producer-core local memory (write copies) and in
// each consumer's local memory (read copies).
func buildLayout(a *let.Analysis, bundles []*bundle) (*dma.Layout, error) {
	orders := make(map[model.MemoryID][]dma.Object)
	for _, b := range bundles {
		for i, lid := range b.labels {
			orders[a.Sys.GlobalMemory()] = append(orders[a.Sys.GlobalMemory()],
				dma.Object{Label: lid, Task: dma.SharedObject})
			wc := a.Comms[b.writes[i]]
			orders[model.MemoryID(b.prodCore)] = append(orders[model.MemoryID(b.prodCore)],
				dma.Object{Label: lid, Task: wc.Task})
		}
		for _, c := range b.consumers {
			mem := a.Sys.LocalMemory(a.Sys.Task(c).Core)
			for _, lid := range b.labels {
				orders[mem] = append(orders[mem], dma.Object{Label: lid, Task: c})
			}
		}
	}
	l := dma.NewLayout()
	for m, objs := range orders {
		if err := l.SetOrder(m, objs); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// buildTransfers creates the (unordered) transfer set: per bundle one write
// transfer plus one read transfer per consumer task, each listing its comms
// in run order.
func buildTransfers(bundles []*bundle) []dma.Transfer {
	var out []dma.Transfer
	for _, b := range bundles {
		out = append(out, dma.Transfer{Comms: append([]int(nil), b.writes...)})
		for _, c := range b.consumers {
			out = append(out, dma.Transfer{Comms: append([]int(nil), b.reads[c]...)})
		}
	}
	return out
}

// perCommTransfers returns the finest granularity: one transfer per
// communication (writes first for a trivially feasible precedence order).
func perCommTransfers(a *let.Analysis) []dma.Transfer {
	var out []dma.Transfer
	for z, c := range a.Comms {
		if c.Kind == let.Write {
			out = append(out, dma.Transfer{Comms: []int{z}})
		}
	}
	for z, c := range a.Comms {
		if c.Kind == let.Read {
			out = append(out, dma.Transfer{Comms: []int{z}})
		}
	}
	return out
}
