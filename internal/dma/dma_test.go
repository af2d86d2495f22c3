package dma

import (
	"strings"
	"testing"

	"letdma/internal/let"
	"letdma/internal/model"
	"letdma/internal/timeutil"
)

func ms(v int64) timeutil.Time { return timeutil.Milliseconds(v) }
func us(v int64) timeutil.Time { return timeutil.Microseconds(v) }

// chainSystem: prod (5ms, core0) writes lA (64B) to fast (10ms, core1) and
// slow (20ms, core1); fast writes lB (32B) back to prod.
// Comms: z0=W(prod,lA) z1=W(fast,lB) z2=R(lA,fast) z3=R(lA,slow) z4=R(lB,prod).
func chainSystem(t *testing.T) (*model.System, *let.Analysis) {
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
	return sys, a
}

// chainSchedule is a feasible all-singleton schedule for chainSystem.
func chainSchedule() *Schedule {
	return &Schedule{Transfers: []Transfer{
		{Comms: []int{0}}, {Comms: []int{1}}, {Comms: []int{2}}, {Comms: []int{3}}, {Comms: []int{4}},
	}}
}

func TestCostModel(t *testing.T) {
	cm := DefaultCostModel()
	if err := cm.Validate(); err != nil {
		t.Fatal(err)
	}
	if cm.PerTransferOverhead() != us(13)+360*timeutil.Nanosecond {
		t.Errorf("lambda_O = %v, want 13.36us", cm.PerTransferOverhead())
	}
	if cm.CopyCost(1000) != 1000*timeutil.Nanosecond {
		t.Errorf("CopyCost(1000) = %v, want 1us", cm.CopyCost(1000))
	}
	if cm.TransferCost(0) != cm.PerTransferOverhead() {
		t.Error("TransferCost(0) should equal lambda_O")
	}
	half := CostModel{ProgramOverhead: 0, ISROverhead: 0, CopyNsNum: 1, CopyNsDen: 2}
	if half.CopyCost(3) != 2 { // ceil(1.5)
		t.Errorf("fractional CopyCost = %v, want 2ns", half.CopyCost(3))
	}
	bad := CostModel{CopyNsNum: 1, CopyNsDen: 0}
	if err := bad.Validate(); err == nil {
		t.Error("expected invalid cost model error")
	}
	neg := CostModel{ProgramOverhead: -1, CopyNsDen: 1}
	if err := neg.Validate(); err == nil {
		t.Error("expected negative-overhead error")
	}
}

func TestLayoutBasics(t *testing.T) {
	l := NewLayout()
	o1 := Object{Label: 0, Task: SharedObject}
	o2 := Object{Label: 1, Task: SharedObject}
	if err := l.SetOrder(2, []Object{o1, o2}); err != nil {
		t.Fatal(err)
	}
	if p, ok := l.Position(2, o2); !ok || p != 1 {
		t.Errorf("Position(o2) = %d,%v", p, ok)
	}
	if _, ok := l.Position(2, Object{Label: 9, Task: SharedObject}); ok {
		t.Error("unexpected position for absent object")
	}
	if err := l.SetOrder(2, []Object{o1, o1}); err == nil {
		t.Error("expected duplicate-object error")
	}
}

func TestLayoutAddresses(t *testing.T) {
	sys, a := chainSystem(t)
	layout := TrivialLayout(a)
	g := sys.GlobalMemory()
	addrs := layout.Addresses(g, sys)
	// Global order: lA (64B) then lB: lA at 0, lB at 64.
	if addrs[Object{Label: sys.LabelByName("lA").ID, Task: SharedObject}] != 0 {
		t.Error("lA should be at offset 0")
	}
	if addrs[Object{Label: sys.LabelByName("lB").ID, Task: SharedObject}] != 64 {
		t.Error("lB should be at offset 64")
	}
}

func TestRequiredObjects(t *testing.T) {
	sys, a := chainSystem(t)
	req := RequiredObjects(a)
	if got := len(req[sys.GlobalMemory()]); got != 2 {
		t.Errorf("global memory hosts %d objects, want 2", got)
	}
	if got := len(req[sys.LocalMemory(0)]); got != 2 { // (lA,prod) copy + (lB,prod) copy
		t.Errorf("M0 hosts %d objects, want 2", got)
	}
	if got := len(req[sys.LocalMemory(1)]); got != 3 { // (lB,fast), (lA,fast), (lA,slow)
		t.Errorf("M1 hosts %d objects, want 3", got)
	}
}

func TestCommTransferPartition(t *testing.T) {
	_, a := chainSystem(t)
	s := chainSchedule()
	ct, err := s.CommTransfer(a.NumComms())
	if err != nil {
		t.Fatal(err)
	}
	for z, g := range ct {
		if g != z {
			t.Errorf("CommTransfer[%d] = %d", z, g)
		}
	}
	// Duplicate mapping.
	bad := &Schedule{Transfers: []Transfer{{Comms: []int{0, 0}}}}
	if _, err := bad.CommTransfer(1); err == nil {
		t.Error("expected duplicate-communication error")
	}
	// Missing communication.
	missing := &Schedule{Transfers: []Transfer{{Comms: []int{0}}}}
	if _, err := missing.CommTransfer(2); err == nil {
		t.Error("expected unmapped-communication error")
	}
	// Out of range.
	oob := &Schedule{Transfers: []Transfer{{Comms: []int{5}}}}
	if _, err := oob.CommTransfer(2); err == nil {
		t.Error("expected out-of-range error")
	}
}

func TestInducedAt(t *testing.T) {
	_, a := chainSystem(t)
	s := chainSchedule()
	induced, origin := s.InducedAt(a, 0)
	if len(induced) != 5 {
		t.Fatalf("induced at s0: %d transfers, want 5", len(induced))
	}
	// At 10ms the slow read (comm 3) is inactive.
	induced, origin = s.InducedAt(a, ms(10))
	if len(induced) != 4 {
		t.Fatalf("induced at 10ms: %d transfers, want 4", len(induced))
	}
	wantOrigin := []int{0, 1, 2, 4}
	for i, g := range origin {
		if g != wantOrigin[i] {
			t.Errorf("origin[%d] = %d, want %d", i, g, wantOrigin[i])
		}
	}
}

func TestLatencyNumbers(t *testing.T) {
	sys, a := chainSystem(t)
	s := chainSchedule()
	cm := DefaultCostModel()
	// lambda_O = 13360ns; sizes per transfer: 64,32,64,64,32.
	total := timeutil.Time(5*13360 + 256)
	if d := s.Duration(a, cm, 0); d != total {
		t.Errorf("Duration(s0) = %v, want %v", d, total)
	}
	prod := sys.TaskByName("prod").ID
	fast := sys.TaskByName("fast").ID
	slow := sys.TaskByName("slow").ID
	if l := Latency(a, cm, s, 0, prod, PerTaskReadiness); l != total {
		t.Errorf("lambda(prod) = %v, want %v (last transfer)", l, total)
	}
	if l := Latency(a, cm, s, 0, fast, PerTaskReadiness); l != timeutil.Time(3*13360+160) {
		t.Errorf("lambda(fast) = %v, want %v", l, timeutil.Time(3*13360+160))
	}
	if l := Latency(a, cm, s, 0, slow, PerTaskReadiness); l != timeutil.Time(4*13360+224) {
		t.Errorf("lambda(slow) = %v", l)
	}
	// Giotto rule: everyone waits for the full sequence.
	if l := Latency(a, cm, s, 0, fast, AfterAllReadiness); l != total {
		t.Errorf("Giotto lambda(fast) = %v, want %v", l, total)
	}
	// slow has no communication at 10ms.
	if l := Latency(a, cm, s, ms(10), slow, PerTaskReadiness); l != 0 {
		t.Errorf("lambda(slow, 10ms) = %v, want 0", l)
	}
}

func TestWorstLatencyAndRatios(t *testing.T) {
	sys, a := chainSystem(t)
	s := chainSchedule()
	cm := DefaultCostModel()
	slow := sys.TaskByName("slow").ID
	// slow is released at 0 only among T* instants; worst = s0 latency.
	if w := WorstLatency(a, cm, s, slow, PerTaskReadiness); w != Latency(a, cm, s, 0, slow, PerTaskReadiness) {
		t.Errorf("WorstLatency(slow) = %v", w)
	}
	r := MaxLatencyRatio(a, cm, s, PerTaskReadiness)
	prod := sys.TaskByName("prod")
	wantR := float64(Latency(a, cm, s, 0, prod.ID, PerTaskReadiness)) / float64(prod.Period)
	if r < wantR-1e-12 || r > wantR+1e-12 {
		t.Errorf("MaxLatencyRatio = %f, want %f", r, wantR)
	}
}

func TestValidateFeasible(t *testing.T) {
	sys, a := chainSystem(t)
	s := chainSchedule()
	layout := TrivialLayout(a)
	gamma := Deadlines{}
	for _, task := range sys.Tasks {
		gamma[task.ID] = ms(2)
	}
	if err := Validate(a, DefaultCostModel(), layout, s, gamma); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateProperty1Violation(t *testing.T) {
	_, a := chainSystem(t)
	// prod's read (z4) before its write (z0).
	s := &Schedule{Transfers: []Transfer{
		{Comms: []int{4}}, {Comms: []int{0}}, {Comms: []int{1}}, {Comms: []int{2}}, {Comms: []int{3}},
	}}
	err := Validate(a, DefaultCostModel(), TrivialLayout(a), s, nil)
	if err == nil || !strings.Contains(err.Error(), "Property") {
		t.Errorf("expected a property violation, got %v", err)
	}
}

func TestValidateProperty2Violation(t *testing.T) {
	_, a := chainSystem(t)
	// Per-task order fine, but R(lA,fast)=z2 precedes W(prod,lA)=z0.
	s := &Schedule{Transfers: []Transfer{
		{Comms: []int{1}}, {Comms: []int{2}}, {Comms: []int{0}}, {Comms: []int{3}}, {Comms: []int{4}},
	}}
	err := Validate(a, DefaultCostModel(), TrivialLayout(a), s, nil)
	if err == nil || !strings.Contains(err.Error(), "Property 2") {
		t.Errorf("expected Property 2 violation, got %v", err)
	}
}

func TestValidateConstraint9Violation(t *testing.T) {
	sys, a := chainSystem(t)
	gamma := Deadlines{sys.TaskByName("prod").ID: us(10)} // below lambda(prod)
	err := Validate(a, DefaultCostModel(), TrivialLayout(a), chainSchedule(), gamma)
	if err == nil || !strings.Contains(err.Error(), "Constraint 9") {
		t.Errorf("expected Constraint 9 violation, got %v", err)
	}
}

func TestValidateMixedClassRejected(t *testing.T) {
	_, a := chainSystem(t)
	s := &Schedule{Transfers: []Transfer{
		{Comms: []int{0, 1}}, // W from M0 and W from M1: different classes
		{Comms: []int{2}}, {Comms: []int{3}}, {Comms: []int{4}},
	}}
	err := Validate(a, DefaultCostModel(), TrivialLayout(a), s, nil)
	if err == nil || !strings.Contains(err.Error(), "direction classes") {
		t.Errorf("expected class violation, got %v", err)
	}
}

func TestValidateEmptyTransferRejected(t *testing.T) {
	_, a := chainSystem(t)
	s := chainSchedule()
	s.Transfers = append(s.Transfers, Transfer{})
	err := Validate(a, DefaultCostModel(), TrivialLayout(a), s, nil)
	if err == nil {
		t.Error("expected empty-transfer error")
	}
}

// groupedSystem: p1, p2 on core0 write l1, l2 to consumer c on core1, all
// with equal periods, so both writes (and both reads) can share a transfer.
func groupedSystem(t *testing.T) (*model.System, *let.Analysis) {
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
	return sys, a
}

func groupedLayout(sys *model.System, a *let.Analysis, globalOrder []Object) *Layout {
	l := NewLayout()
	l1, l2 := sys.LabelByName("l1"), sys.LabelByName("l2")
	p1, p2, c := sys.TaskByName("p1"), sys.TaskByName("p2"), sys.TaskByName("c")
	_ = l.SetOrder(sys.LocalMemory(0), []Object{{l1.ID, p1.ID}, {l2.ID, p2.ID}})
	_ = l.SetOrder(sys.LocalMemory(1), []Object{{l1.ID, c.ID}, {l2.ID, c.ID}})
	_ = l.SetOrder(sys.GlobalMemory(), globalOrder)
	return l
}

func TestValidateGroupedFeasible(t *testing.T) {
	sys, a := chainSystemGrouped(t)
	_ = sys
	_ = a
}

// chainSystemGrouped is a helper kept separate so the grouped tests below
// read naturally.
func chainSystemGrouped(t *testing.T) (*model.System, *let.Analysis) { return groupedSystem(t) }

func TestGroupedContiguityOK(t *testing.T) {
	sys, a := groupedSystem(t)
	l1, l2 := sys.LabelByName("l1"), sys.LabelByName("l2")
	layout := groupedLayout(sys, a, []Object{{l1.ID, SharedObject}, {l2.ID, SharedObject}})
	// Comms: z0=W(p1,l1) z1=W(p2,l2) z2=R(l1,c) z3=R(l2,c).
	s := &Schedule{Transfers: []Transfer{{Comms: []int{0, 1}}, {Comms: []int{2, 3}}}}
	if err := Validate(a, DefaultCostModel(), layout, s, nil); err != nil {
		t.Fatalf("Validate grouped: %v", err)
	}
}

func TestGroupedContiguityOrderMismatch(t *testing.T) {
	sys, a := groupedSystem(t)
	l1, l2 := sys.LabelByName("l1"), sys.LabelByName("l2")
	// Global memory order reversed: the same grouping is now infeasible.
	layout := groupedLayout(sys, a, []Object{{l2.ID, SharedObject}, {l1.ID, SharedObject}})
	s := &Schedule{Transfers: []Transfer{{Comms: []int{0, 1}}, {Comms: []int{2, 3}}}}
	err := Validate(a, DefaultCostModel(), layout, s, nil)
	if err == nil || !strings.Contains(err.Error(), "global memory") {
		t.Errorf("expected contiguity violation, got %v", err)
	}
}

// TestGroupedSubsetContiguity exercises the Theorem-1 condition: a grouping
// that is contiguous at s0 but fragments at a later activation instant must
// be rejected.
func TestGroupedSubsetContiguity(t *testing.T) {
	sys := model.NewSystem(2)
	p1 := sys.MustAddTask("p1", ms(5), timeutil.Millisecond, 0)
	p2 := sys.MustAddTask("p2", ms(10), timeutil.Millisecond, 0)
	p3 := sys.MustAddTask("p3", ms(5), timeutil.Millisecond, 0)
	c := sys.MustAddTask("c", ms(5), timeutil.Millisecond, 1)
	l1 := sys.MustAddLabel("l1", 10, p1, c)
	l2 := sys.MustAddLabel("l2", 10, p2, c)
	l3 := sys.MustAddLabel("l3", 10, p3, c)
	sys.AssignRateMonotonicPriorities()
	a, err := let.Analyze(sys)
	if err != nil {
		t.Fatal(err)
	}
	// At t=5ms only W(p1,l1) and W(p3,l3) are active (p2 writes every 10ms).
	layout := NewLayout()
	_ = layout.SetOrder(sys.LocalMemory(0), []Object{{l1.ID, p1.ID}, {l2.ID, p2.ID}, {l3.ID, p3.ID}})
	_ = layout.SetOrder(sys.LocalMemory(1), []Object{{l1.ID, c.ID}, {l2.ID, c.ID}, {l3.ID, c.ID}})
	_ = layout.SetOrder(sys.GlobalMemory(), []Object{{l1.ID, SharedObject}, {l2.ID, SharedObject}, {l3.ID, SharedObject}})
	z := func(k let.Kind, task model.TaskID, label model.LabelID) int {
		idx := a.CommIndex(let.Comm{Kind: k, Task: task, Label: label})
		if idx < 0 {
			t.Fatalf("missing communication %v %d %d", k, task, label)
		}
		return idx
	}
	s := &Schedule{Transfers: []Transfer{
		{Comms: []int{z(let.Write, p1.ID, l1.ID), z(let.Write, p2.ID, l2.ID), z(let.Write, p3.ID, l3.ID)}},
		{Comms: []int{z(let.Read, c.ID, l1.ID), z(let.Read, c.ID, l2.ID), z(let.Read, c.ID, l3.ID)}},
	}}
	err = Validate(a, DefaultCostModel(), layout, s, nil)
	if err == nil || !strings.Contains(err.Error(), "not adjacent") {
		t.Errorf("expected subset contiguity violation at t=5ms, got %v", err)
	}
}

func TestValidateConstraint10Violation(t *testing.T) {
	// Two tasks with 15us periods and one label each direction: the four
	// per-transfer overheads alone (4 x 13.36us) exceed the hyperperiod.
	sys := model.NewSystem(2)
	x := sys.MustAddTask("x", us(15), 0, 0)
	y := sys.MustAddTask("y", us(15), 0, 1)
	sys.MustAddLabel("lx", 8, x, y)
	sys.MustAddLabel("ly", 8, y, x)
	sys.AssignRateMonotonicPriorities()
	a, err := let.Analyze(sys)
	if err != nil {
		t.Fatal(err)
	}
	s := &Schedule{Transfers: []Transfer{
		{Comms: []int{0}}, {Comms: []int{1}}, {Comms: []int{2}}, {Comms: []int{3}},
	}}
	err = Validate(a, DefaultCostModel(), TrivialLayout(a), s, nil)
	if err == nil || !strings.Contains(err.Error(), "Constraint 10") {
		t.Errorf("expected Constraint 10 violation, got %v", err)
	}
}

func TestGiottoPerCommSchedule(t *testing.T) {
	_, a := chainSystem(t)
	s := GiottoPerCommSchedule(a)
	if s.NumTransfers() != a.NumComms() {
		t.Fatalf("NumTransfers = %d, want %d", s.NumTransfers(), a.NumComms())
	}
	// All writes first.
	seenRead := false
	for _, tr := range s.Transfers {
		if len(tr.Comms) != 1 {
			t.Fatal("per-comm schedule must have singleton transfers")
		}
		if a.Comms[tr.Comms[0]].Kind == let.Read {
			seenRead = true
		} else if seenRead {
			t.Fatal("write transfer after a read transfer")
		}
	}
	if err := Validate(a, DefaultCostModel(), TrivialLayout(a), s, nil); err != nil {
		t.Errorf("Giotto per-comm schedule should validate: %v", err)
	}
}

func TestGiottoReorder(t *testing.T) {
	sys, a := groupedSystem(t)
	l1, l2 := sys.LabelByName("l1"), sys.LabelByName("l2")
	layout := groupedLayout(sys, a, []Object{{l1.ID, SharedObject}, {l2.ID, SharedObject}})
	// Optimized order interleaves: W group, R group already; scramble to
	// reads-first to exercise the reordering.
	opt := &Schedule{Transfers: []Transfer{{Comms: []int{2, 3}}, {Comms: []int{0, 1}}}}
	re := GiottoReorder(a, opt)
	if a.Comms[re.Transfers[0].Comms[0]].Kind != let.Write {
		t.Error("GiottoReorder must put write transfers first")
	}
	if err := Validate(a, DefaultCostModel(), layout, re, nil); err != nil {
		t.Errorf("reordered schedule should validate: %v", err)
	}
}

func TestValidateCatchesBadCostModel(t *testing.T) {
	_, a := chainSystem(t)
	bad := CostModel{CopyNsNum: -1, CopyNsDen: 1}
	if err := Validate(a, bad, TrivialLayout(a), chainSchedule(), nil); err == nil {
		t.Error("expected cost-model error")
	}
}

func TestValidateMemoryCapacity(t *testing.T) {
	sys, a := chainSystem(t)
	// Copies in M1: lB(32) + lA(64) + lA(64) = 160 bytes.
	sys.SetMemoryCapacity(sys.LocalMemory(1), 128)
	err := Validate(a, DefaultCostModel(), TrivialLayout(a), chainSchedule(), nil)
	if err == nil || !strings.Contains(err.Error(), "bytes") {
		t.Errorf("expected capacity violation, got %v", err)
	}
	sys.SetMemoryCapacity(sys.LocalMemory(1), 160)
	if err := Validate(a, DefaultCostModel(), TrivialLayout(a), chainSchedule(), nil); err != nil {
		t.Errorf("exact-fit capacity rejected: %v", err)
	}
}

// TestParseObjective: every objective name the CLI and the service accept
// maps to its objective; any other name, the empty one included, is
// rejected.
func TestParseObjective(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Objective
	}{
		{"none", NoObjective}, {"noobj", NoObjective}, {"dmat", MinTransfers}, {"del", MinDelayRatio},
	} {
		got, err := ParseObjective(tc.name)
		if err != nil || got != tc.want {
			t.Errorf("ParseObjective(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
	for _, name := range []string{"", "DEL", "obj-del"} {
		if _, err := ParseObjective(name); err == nil {
			t.Errorf("ParseObjective(%q) accepted", name)
		}
	}
}
