// Package dma models DMA transfers, memory layouts and the timing cost
// model of the LET-DMA protocol (Section V), and provides validation of
// candidate solutions against the paper's feasibility conditions:
// partitioning of C(s0) into transfers (Constraint 1), contiguity of each
// transfer's labels in both source and destination memory at every
// activation instant (Constraint 6), LET Properties 1-2 (Constraints 7-8),
// data-acquisition deadlines (Constraint 9) and Property 3 (Constraint 10).
//
// The validator is deliberately independent from the optimizers in
// internal/letopt and internal/combopt: any solution they produce is checked
// here against the model semantics directly.
package dma

import (
	"fmt"
	"slices"
	"sort"

	"letdma/internal/let"
	"letdma/internal/model"
	"letdma/internal/timeutil"
)

// CostModel collects the timing parameters of Section V and VII.
type CostModel struct {
	// ProgramOverhead is o_DP: worst-case time for a LET task to program
	// one DMA transfer.
	ProgramOverhead timeutil.Time
	// ISROverhead is o_ISR: worst-case duration of the DMA completion
	// interrupt service routine.
	ISROverhead timeutil.Time
	// CopyNsNum/CopyNsDen express omega_c, the per-byte copy cost, as a
	// rational number of nanoseconds per byte (CopyNsNum/CopyNsDen).
	CopyNsNum int64
	CopyNsDen int64
}

// DefaultCostModel returns the parameters used in the paper's evaluation:
// o_DP = 3.36us and o_ISR = 10us (measurements from Tabish et al. [8]), and
// a DMA streaming rate of 1 GB/s (1 ns/byte), representative of the SRI
// crossbar bandwidth of AURIX-class platforms.
func DefaultCostModel() CostModel {
	return CostModel{
		ProgramOverhead: 3360 * timeutil.Nanosecond, // 3.36 us
		ISROverhead:     10 * timeutil.Microsecond,
		CopyNsNum:       1,
		CopyNsDen:       1,
	}
}

// CPUCopyCostModel returns the cost model used for the Giotto-CPU baseline:
// no DMA programming or ISR overhead, but a per-copy software overhead
// (modelled through ProgramOverhead) and a slower per-byte cost, since the
// CPU moves data with load/store pairs through the crossbar instead of
// burst transfers (4 ns/byte, i.e. 250 MB/s).
func CPUCopyCostModel() CostModel {
	return CostModel{
		ProgramOverhead: 500 * timeutil.Nanosecond, // per-copy call/loop setup
		ISROverhead:     0,
		CopyNsNum:       4,
		CopyNsDen:       1,
	}
}

// PerTransferOverhead returns lambda_O = o_DP + o_ISR.
func (cm CostModel) PerTransferOverhead() timeutil.Time {
	return cm.ProgramOverhead + cm.ISROverhead
}

// CopyCost returns the data-movement time for size bytes, rounded up.
func (cm CostModel) CopyCost(size int64) timeutil.Time {
	if cm.CopyNsDen <= 0 {
		panic("dma: CostModel.CopyNsDen must be positive")
	}
	return timeutil.Time(timeutil.CeilDiv(size*cm.CopyNsNum, cm.CopyNsDen))
}

// TransferCost returns the worst-case duration of one DMA transfer moving
// size bytes: lambda_O + omega_c * size.
func (cm CostModel) TransferCost(size int64) timeutil.Time {
	return cm.PerTransferOverhead() + cm.CopyCost(size)
}

// Validate checks the cost model parameters.
func (cm CostModel) Validate() error {
	if cm.ProgramOverhead < 0 || cm.ISROverhead < 0 {
		return fmt.Errorf("dma: negative overheads in cost model")
	}
	if cm.CopyNsNum < 0 || cm.CopyNsDen <= 0 {
		return fmt.Errorf("dma: invalid per-byte copy cost %d/%d", cm.CopyNsNum, cm.CopyNsDen)
	}
	return nil
}

// Object identifies one placeable item in a memory: the shared label itself
// in global memory (Task == SharedObject), or a task-local copy of the label
// in that task's local memory.
type Object struct {
	Label model.LabelID
	Task  model.TaskID // SharedObject for the global-memory instance
}

// SharedObject marks the global-memory instance of a label.
const SharedObject model.TaskID = -1

// Layout assigns, for each memory, a total order of the objects it hosts.
// The position index is the PL variable of the MILP; byte addresses follow
// from positions and label sizes.
type Layout struct {
	order map[model.MemoryID][]Object
	pos   map[model.MemoryID]map[Object]int
}

// NewLayout creates an empty layout.
func NewLayout() *Layout {
	return &Layout{
		order: make(map[model.MemoryID][]Object),
		pos:   make(map[model.MemoryID]map[Object]int),
	}
}

// SetOrder defines the object order of memory m (position 0 first).
// It returns an error if an object appears twice.
func (l *Layout) SetOrder(m model.MemoryID, objs []Object) error {
	p := make(map[Object]int, len(objs))
	for i, o := range objs {
		if _, dup := p[o]; dup {
			return fmt.Errorf("dma: object %v placed twice in memory %d", o, m)
		}
		p[o] = i
	}
	l.order[m] = append([]Object(nil), objs...)
	l.pos[m] = p
	return nil
}

// Order returns the object order of memory m.
func (l *Layout) Order(m model.MemoryID) []Object { return l.order[m] }

// Position returns the position of object o in memory m and whether it is
// placed there.
func (l *Layout) Position(m model.MemoryID, o Object) (int, bool) {
	p, ok := l.pos[m][o]
	return p, ok
}

// Addresses returns the byte offset of every object in memory m, in
// position order, computed from the label sizes in sys.
func (l *Layout) Addresses(m model.MemoryID, sys *model.System) map[Object]int64 {
	out := make(map[Object]int64, len(l.order[m]))
	var addr int64
	for _, o := range l.order[m] {
		out[o] = addr
		addr += sys.Label(o.Label).Size
	}
	return out
}

// CommObjects returns the two objects moved by communication z of a: the
// local copy and the global shared label. For a write the local copy is the
// source; for a read it is the destination.
func CommObjects(a *let.Analysis, z int) (local, global Object) {
	c := a.Comms[z]
	return Object{Label: c.Label, Task: c.Task}, Object{Label: c.Label, Task: SharedObject}
}

// RequiredObjects returns the objects each memory must host to support all
// communications: the shared labels in global memory and the local copies
// in each communicating task's memory. Orders within the result are by
// (label, task) for determinism; the layout optimizer permutes them.
func RequiredObjects(a *let.Analysis) map[model.MemoryID][]Object {
	req := make(map[model.MemoryID]map[Object]bool)
	add := func(m model.MemoryID, o Object) {
		if req[m] == nil {
			req[m] = make(map[Object]bool)
		}
		req[m][o] = true
	}
	for z := range a.Comms {
		localObj, globalObj := CommObjects(a, z)
		add(a.LocalMemory(z), localObj)
		add(a.Sys.GlobalMemory(), globalObj)
	}
	out := make(map[model.MemoryID][]Object, len(req))
	for m, set := range req {
		objs := make([]Object, 0, len(set))
		for o := range set {
			objs = append(objs, o)
		}
		sort.Slice(objs, func(i, j int) bool {
			if objs[i].Label != objs[j].Label {
				return objs[i].Label < objs[j].Label
			}
			return objs[i].Task < objs[j].Task
		})
		out[m] = objs
	}
	return out
}

// Transfer is one DMA transfer: an ordered set of communications with the
// same direction class whose labels are contiguous, in this order, in both
// the source and the destination memory.
type Transfer struct {
	Comms []int // indices into Analysis.Comms, in label-address order
}

// Schedule is the ordered sequence of DMA transfers issued at the
// synchronous release instant s0. The schedule at any other instant t of T*
// is induced by restriction (see InducedAt).
type Schedule struct {
	Transfers []Transfer
}

// NumTransfers returns the number of transfers at s0.
func (s *Schedule) NumTransfers() int { return len(s.Transfers) }

// CommTransfer returns, for each communication index, the transfer index it
// belongs to (CGI in the MILP), or an error if the schedule is not a
// partition of C(s0).
func (s *Schedule) CommTransfer(numComms int) ([]int, error) {
	out := make([]int, numComms)
	for i := range out {
		out[i] = -1
	}
	for g, tr := range s.Transfers {
		for _, z := range tr.Comms {
			if z < 0 || z >= numComms {
				return nil, fmt.Errorf("dma: transfer %d references unknown communication %d", g, z)
			}
			if out[z] != -1 {
				return nil, fmt.Errorf("dma: communication %d mapped to transfers %d and %d", z, out[z], g)
			}
			out[z] = g
		}
	}
	for z, g := range out {
		if g == -1 {
			return nil, fmt.Errorf("dma: communication %d not mapped to any transfer", z)
		}
	}
	return out, nil
}

// InducedAt returns the schedule induced at instant t: each transfer
// restricted to the communications active at t, with empty transfers
// removed and the original order preserved. The second return value maps
// each kept transfer back to its s0 index.
func (s *Schedule) InducedAt(a *let.Analysis, t timeutil.Time) ([]Transfer, []int) {
	active := a.ActiveAt(t) // sorted, so membership is a binary search
	// One backing array for every kept transfer: a partition of C(s0)
	// induces at most len(active) communications, in as many transfers.
	buf := make([]int, 0, len(active))
	n := min(len(active), len(s.Transfers))
	kept, origin := make([]Transfer, 0, n), make([]int, 0, n)
	for g, tr := range s.Transfers {
		start := len(buf)
		for _, z := range tr.Comms {
			if _, ok := slices.BinarySearch(active, z); ok {
				buf = append(buf, z)
			}
		}
		if len(buf) > start {
			kept = append(kept, Transfer{Comms: buf[start:len(buf):len(buf)]})
			origin = append(origin, g)
		}
	}
	if len(kept) == 0 {
		return nil, nil
	}
	return kept, origin
}

// TransferSize returns the bytes moved by tr.
func TransferSize(a *let.Analysis, tr Transfer) int64 {
	var sz int64
	for _, z := range tr.Comms {
		sz += a.Size(z)
	}
	return sz
}

// Duration returns the total worst-case duration of the induced schedule at
// instant t: one lambda_O per issued transfer plus the copy cost of all
// bytes moved (the accumulation of Constraint 9 over the full sequence).
func (s *Schedule) Duration(a *let.Analysis, cm CostModel, t timeutil.Time) timeutil.Time {
	induced, _ := s.InducedAt(a, t)
	var total timeutil.Time
	for _, tr := range induced {
		total += cm.TransferCost(TransferSize(a, tr))
	}
	return total
}
