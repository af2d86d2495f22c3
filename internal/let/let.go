// Package let implements the LET communication semantics of Section IV and
// the grouping machinery of Section V-A: the skip rules of Eqs. (1)-(2), the
// per-task communication hyperperiod H*_i of Eq. (3), Algorithm 1
// (Compute_LETGROUP), and the communication sets C(t), C^W(t, M_k) and
// C^R(t, M_k).
//
// Notation note. The paper states Eqs. (1)-(2) with subscripts that do not
// line up with their use in Algorithm 1 (a known compression artifact of the
// DAC format). This package implements the unambiguous semantics the
// equations come from (Biondi & Di Natale, RTAS 2018 [3]):
//
//   - Writes by a producer tau_w for a consumer tau_r can be skipped only
//     when the producer is oversampled (T_w < T_r); the necessary writes are
//     at producer job indices floor(v*T_r/T_w), v in N (Eq. (1) with p the
//     producer and i the consumer).
//   - Reads by a consumer tau_r from a producer tau_w can be skipped only
//     when the consumer is oversampled (T_r < T_w); the necessary reads are
//     at consumer job indices ceil(v*T_w/T_r), v in N (Eq. (2); the paper's
//     guard "T_c > T_i" is a typo for "T_c < T_i" -- with the printed guard
//     the ceiling image is all of N and the skip rule would never skip).
//
// Both index sets repeat with period LCM(T_w, T_r).
package let

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"letdma/internal/model"
	"letdma/internal/timeutil"
)

// Kind distinguishes LET writes from LET reads.
type Kind int

const (
	// Write is a DMA copy from the producer's local copy to the shared
	// label in global memory: W(tau_p, l).
	Write Kind = iota
	// Read is a DMA copy from the shared label in global memory to the
	// consumer's local copy: R(l, tau_c).
	Read
)

// String returns "W" or "R".
func (k Kind) String() string {
	if k == Write {
		return "W"
	}
	return "R"
}

// Comm identifies one LET communication. Task is the local-side task: the
// producer for a Write, the consumer for a Read. Together (Kind, Task,
// Label) are unique within a system: a label has one writer, and each
// consumer reads a label through exactly one communication.
type Comm struct {
	Kind  Kind
	Task  model.TaskID
	Label model.LabelID
}

// WriteIndices returns the producer job indices v (0-based, within one
// repetition period LCM(Tw, Tr)) at which a LET write from a producer with
// period Tw to a consumer with period Tr is necessary (Eq. (1)).
func WriteIndices(tw, tr timeutil.Time) ([]int64, error) {
	lcm, err := timeutil.LCM(int64(tw), int64(tr))
	if err != nil {
		return nil, err
	}
	nw := lcm / int64(tw) // producer jobs per repetition period
	if tw >= tr {
		all := make([]int64, nw)
		for i := range all {
			all[i] = int64(i)
		}
		return all, nil
	}
	// Oversampled producer: keep only writes whose data is consumed.
	nr := lcm / int64(tr)
	seen := make(map[int64]bool, nr)
	var out []int64
	for v := int64(0); v < nr; v++ {
		idx := timeutil.FloorDiv(v*int64(tr), int64(tw))
		if !seen[idx] {
			seen[idx] = true
			out = append(out, idx)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// ReadIndices returns the consumer job indices v (0-based, within one
// repetition period LCM(Tw, Tr)) at which a LET read by a consumer with
// period Tr from a producer with period Tw is necessary (Eq. (2)).
func ReadIndices(tw, tr timeutil.Time) ([]int64, error) {
	lcm, err := timeutil.LCM(int64(tw), int64(tr))
	if err != nil {
		return nil, err
	}
	nr := lcm / int64(tr)
	if tr >= tw {
		all := make([]int64, nr)
		for i := range all {
			all[i] = int64(i)
		}
		return all, nil
	}
	// Oversampled consumer: keep only the first read after each new write.
	nw := lcm / int64(tw)
	seen := make(map[int64]bool, nw)
	var out []int64
	for v := int64(0); v < nw; v++ {
		idx := timeutil.CeilDiv(v*int64(tw), int64(tr))
		if !seen[idx] {
			seen[idx] = true
			out = append(out, idx)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// CommHyperperiod returns H*_i of Eq. (3): the LCM of T_i and the periods of
// all tasks that share at least one inter-core label with task ti. If ti has
// no inter-core communication, H*_i = T_i.
func CommHyperperiod(sys *model.System, ti *model.Task) (timeutil.Time, error) {
	periods := []timeutil.Time{ti.Period}
	for _, tj := range sys.Tasks {
		if tj.ID == ti.ID {
			continue
		}
		if sys.Communicates(ti, tj) {
			periods = append(periods, tj.Period)
		}
	}
	return timeutil.Hyperperiod(periods...)
}

// Analysis holds the complete LET communication structure of a system over
// one hyperperiod [0, H): the communication set C(s0), each communication's
// activation instants, and the instants T* at which at least one
// communication is required.
type Analysis struct {
	Sys *model.System
	H   timeutil.Time // system hyperperiod

	// Comms is C(s0) in a stable deterministic order: all writes by label
	// ID, then all reads by (label ID, consumer ID).
	Comms []Comm
	// Shared maps each label to its SharedLabel record (inter-core only).
	Shared map[model.LabelID]model.SharedLabel

	index map[Comm]int
	// act[z] is the sorted list of instants in [0, H) at which Comms[z] is
	// required. act[z][0] == 0 for every z (synchronous release at s0).
	act [][]timeutil.Time
	// instants is T*: the sorted union of all activation instants.
	instants []timeutil.Time
	// activeAt maps an instant of T* to the sorted indices of the
	// communications active at that instant.
	activeAt map[timeutil.Time][]int
	// patternOf[i] indexes reps with the active set C(instants[i]); reps
	// holds one representative instant per distinct active set, in order
	// of first occurrence.
	patternOf []int
	reps      []timeutil.Time
}

// Analyze computes the LET communication structure of sys.
// It returns an error if the system is invalid or has no inter-core
// communication.
func Analyze(sys *model.System) (*Analysis, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	shared := sys.SharedLabels()
	if len(shared) == 0 {
		return nil, fmt.Errorf("let: system has no inter-core shared labels")
	}
	h, err := sys.Hyperperiod()
	if err != nil {
		return nil, err
	}
	a := &Analysis{
		Sys:      sys,
		H:        h,
		Shared:   make(map[model.LabelID]model.SharedLabel, len(shared)),
		index:    make(map[Comm]int),
		activeAt: make(map[timeutil.Time][]int),
	}
	for _, sl := range shared {
		a.Shared[sl.Label.ID] = sl
	}

	// Writes first (by label ID), then reads (by label ID, consumer ID):
	// a stable order that examples and tests can rely on.
	for _, sl := range shared {
		c := Comm{Kind: Write, Task: sl.Producer.ID, Label: sl.Label.ID}
		a.index[c] = len(a.Comms)
		a.Comms = append(a.Comms, c)
	}
	for _, sl := range shared {
		for _, cons := range sl.Consumers {
			c := Comm{Kind: Read, Task: cons.ID, Label: sl.Label.ID}
			a.index[c] = len(a.Comms)
			a.Comms = append(a.Comms, c)
		}
	}

	// Activation instants per communication over [0, H).
	a.act = make([][]timeutil.Time, len(a.Comms))
	for z, c := range a.Comms {
		times, err := a.activationTimes(c)
		if err != nil {
			return nil, err
		}
		a.act[z] = times
	}

	// T* and the active set at each instant.
	instantSet := make(map[timeutil.Time]bool)
	for z := range a.Comms {
		for _, t := range a.act[z] {
			instantSet[t] = true
			a.activeAt[t] = append(a.activeAt[t], z)
		}
	}
	for t := range instantSet {
		a.instants = append(a.instants, t)
	}
	sort.Slice(a.instants, func(i, j int) bool { return a.instants[i] < a.instants[j] })
	for _, zs := range a.activeAt {
		sort.Ints(zs)
	}
	a.indexPatterns()
	return a, nil
}

// indexPatterns groups the instants of T* by their active set C(t). The
// map key is the set's uvarint encoding: a byte-exact identity of the
// sorted index list that costs one small buffer instead of a formatted
// string per instant (Analyze runs for every candidate system a caller
// screens).
func (a *Analysis) indexPatterns() {
	a.patternOf = make([]int, len(a.instants))
	ids := make(map[string]int)
	var key []byte
	for i, t := range a.instants {
		key = key[:0]
		for _, z := range a.activeAt[t] {
			key = binary.AppendUvarint(key, uint64(z))
		}
		p, ok := ids[string(key)]
		if !ok {
			p = len(a.reps)
			ids[string(key)] = p
			a.reps = append(a.reps, t)
		}
		a.patternOf[i] = p
	}
}

// activationTimes returns the sorted instants in [0, H) at which c is
// required. For a write, this is the union over consumers of the necessary
// write instants; for a read, the necessary read instants w.r.t. the
// label's producer.
func (a *Analysis) activationTimes(c Comm) ([]timeutil.Time, error) {
	sl := a.Shared[c.Label]
	set := make(map[timeutil.Time]bool)
	switch c.Kind {
	case Write:
		tw := sl.Producer.Period
		for _, cons := range sl.Consumers {
			tr := cons.Period
			idxs, err := WriteIndices(tw, tr)
			if err != nil {
				return nil, err
			}
			lcm, err := timeutil.LCM(int64(tw), int64(tr))
			if err != nil {
				return nil, err
			}
			for base := int64(0); base < int64(a.H); base += lcm {
				for _, v := range idxs {
					t := timeutil.Time(base + v*int64(tw))
					if t < a.H {
						set[t] = true
					}
				}
			}
		}
	case Read:
		tw := sl.Producer.Period
		tr := a.Sys.Task(c.Task).Period
		idxs, err := ReadIndices(tw, tr)
		if err != nil {
			return nil, err
		}
		lcm, err := timeutil.LCM(int64(tw), int64(tr))
		if err != nil {
			return nil, err
		}
		for base := int64(0); base < int64(a.H); base += lcm {
			for _, v := range idxs {
				t := timeutil.Time(base + v*int64(tr))
				if t < a.H {
					set[t] = true
				}
			}
		}
	default:
		return nil, fmt.Errorf("let: unknown communication kind %d", c.Kind)
	}
	out := make([]timeutil.Time, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// NumComms returns |C(s0)|.
func (a *Analysis) NumComms() int { return len(a.Comms) }

// CommIndex returns the dense index of c in Comms, or -1 if c is not a
// communication of this system.
func (a *Analysis) CommIndex(c Comm) int {
	if z, ok := a.index[c]; ok {
		return z
	}
	return -1
}

// Instants returns T*: the sorted instants in [0, H) at which at least one
// LET communication is required. Instants()[0] == 0 (the synchronous
// release s0).
func (a *Analysis) Instants() []timeutil.Time { return a.instants }

// ActiveAt returns the sorted indices (into Comms) of the communications
// required at instant t, i.e. C(t). It returns nil if t is not in T*.
func (a *Analysis) ActiveAt(t timeutil.Time) []int { return a.activeAt[t] }

// Activations returns the sorted activation instants of communication z.
func (a *Analysis) Activations(z int) []timeutil.Time { return a.act[z] }

// Window is one interval between consecutive communication instants:
// transfers issued at Start must complete by End (Property 3 /
// Constraint 10). The last window ends at H, where the s0 pattern repeats.
type Window struct {
	Start, End timeutil.Time
}

// Windows returns the consecutive (instant, next instant) pairs of T*,
// including the wrap-around of the final instant to the hyperperiod H.
func (a *Analysis) Windows() []Window {
	out := make([]Window, len(a.instants))
	for i, t := range a.instants {
		next := a.H
		if i+1 < len(a.instants) {
			next = a.instants[i+1]
		}
		out[i] = Window{Start: t, End: next}
	}
	return out
}

// GroupsFor implements Algorithm 1 (Compute_LETGROUP): the LET writes
// G^W(t, tau_i) and reads G^R(t, tau_i) required by task ti at instant t.
// Both slices contain indices into Comms and are sorted.
func (a *Analysis) GroupsFor(t timeutil.Time, ti model.TaskID) (writes, reads []int) {
	for _, z := range a.activeAt[t] {
		c := a.Comms[z]
		if c.Task != ti {
			continue
		}
		if c.Kind == Write {
			writes = append(writes, z)
		} else {
			reads = append(reads, z)
		}
	}
	return writes, reads
}

// WritesAt returns C^W(t, M_k): indices of write communications required at
// t whose source is the local memory of core k.
func (a *Analysis) WritesAt(t timeutil.Time, k model.CoreID) []int {
	var out []int
	for _, z := range a.activeAt[t] {
		c := a.Comms[z]
		if c.Kind == Write && a.Sys.Task(c.Task).Core == k {
			out = append(out, z)
		}
	}
	return out
}

// ReadsAt returns C^R(t, M_k): indices of read communications required at t
// whose destination is the local memory of core k.
func (a *Analysis) ReadsAt(t timeutil.Time, k model.CoreID) []int {
	var out []int
	for _, z := range a.activeAt[t] {
		c := a.Comms[z]
		if c.Kind == Read && a.Sys.Task(c.Task).Core == k {
			out = append(out, z)
		}
	}
	return out
}

// LocalMemory returns the local memory involved in communication z: the
// producer's memory for a write (source), the consumer's memory for a read
// (destination). The other end is always the global memory.
func (a *Analysis) LocalMemory(z int) model.MemoryID {
	c := a.Comms[z]
	return a.Sys.LocalMemory(a.Sys.Task(c.Task).Core)
}

// DirectionClass identifies the set a communication is grouped within: a
// DMA transfer may only merge communications with the same source and
// destination memories, i.e. the same (local memory, kind) pair.
type DirectionClass struct {
	Mem  model.MemoryID
	Kind Kind
}

// Class returns the direction class of communication z.
func (a *Analysis) Class(z int) DirectionClass {
	return DirectionClass{Mem: a.LocalMemory(z), Kind: a.Comms[z].Kind}
}

// CommString renders communication z in the paper's notation, e.g.
// "W(SFM, l3)" or "R(l3, PLAN)".
func (a *Analysis) CommString(z int) string {
	c := a.Comms[z]
	task := a.Sys.Task(c.Task).Name
	label := a.Sys.Label(c.Label).Name
	if c.Kind == Write {
		return fmt.Sprintf("W(%s, %s)", task, label)
	}
	return fmt.Sprintf("R(%s, %s)", label, task)
}

// Size returns the size in bytes of the label moved by communication z.
func (a *Analysis) Size(z int) int64 { return a.Sys.Label(a.Comms[z].Label).Size }

// ActiveSubsets returns, for each distinct non-empty active set C(t) with
// t in T*, one representative instant: the first instant with that set.
// The result is sorted by representative instant; index 0 is always
// s0 = 0 with the full set C(s0). Layout feasibility (Constraint 6), and by
// Theorem 1 every timing quantity of a schedule at t, only depends on
// these distinct sets. The slice is computed once by Analyze and shared:
// callers must not modify it.
func (a *Analysis) ActiveSubsets() []timeutil.Time { return a.reps }

// PatternOf returns the index into ActiveSubsets of the active set C(t):
// every t with the same PatternOf has the same C(t), so the induced
// schedule and everything derived from it is the same as at
// ActiveSubsets()[PatternOf(t)]. It returns -1 if t is not in T* (no
// communication is required at t).
func (a *Analysis) PatternOf(t timeutil.Time) int {
	i, ok := slices.BinarySearch(a.instants, t)
	if !ok {
		return -1
	}
	return a.patternOf[i]
}

// SubsetProperty verifies that C(t) is a subset of C(s0) for every t in T*
// (guaranteed by synchronous release; used as a sanity check and in tests).
func (a *Analysis) SubsetProperty() error {
	s0 := a.activeAt[0]
	if len(s0) != len(a.Comms) {
		return fmt.Errorf("let: C(s0) has %d communications, want all %d", len(s0), len(a.Comms))
	}
	for _, t := range a.instants {
		for _, z := range a.activeAt[t] {
			if z < 0 || z >= len(a.Comms) {
				return fmt.Errorf("let: C(%v) references unknown communication %d", t, z)
			}
		}
	}
	return nil
}
