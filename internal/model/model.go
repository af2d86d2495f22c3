// Package model defines the platform and application model of the LET-DMA
// paper (Section III): a set of identical cores with private dual-ported
// local memories plus one shared global memory, periodic tasks under
// partitioned fixed-priority scheduling, and labels (memory slots) connected
// to tasks through read and write sets.
//
// Inter-core shared labels — written by a task on one core and read by at
// least one task on a different core — are the objects moved by the DMA:
// the shared label lives in global memory and per-task copies live in the
// local memories of the communicating tasks.
package model

import (
	"fmt"
	"sort"

	"letdma/internal/timeutil"
)

// CoreID identifies a processor core P_k (0-based).
type CoreID int

// TaskID identifies a task within a System (0-based, dense).
type TaskID int

// LabelID identifies a label within a System (0-based, dense).
type LabelID int

// MemoryID identifies a memory: IDs 0..N-1 are the local memories of cores
// 0..N-1 and ID N is the global memory M_G of a system with N cores.
type MemoryID int

// Task is a periodic real-time task statically assigned to one core.
// Priorities are unique per core; a numerically smaller Priority value means
// a higher scheduling priority.
type Task struct {
	ID       TaskID
	Name     string
	Period   timeutil.Time // T_i; the relative deadline D_i equals T_i
	WCET     timeutil.Time // worst-case execution time C_i
	Core     CoreID        // P(tau_i)
	Priority int
}

// Label is a memory slot of Size bytes. Writer is the unique producer task
// (or -1 if the label is constant/input data with no producer). Readers are
// the consumer tasks; a task may appear at most once.
type Label struct {
	ID      LabelID
	Name    string
	Size    int64
	Writer  TaskID
	Readers []TaskID
}

// SharedLabel describes one inter-core shared label: it is produced by
// Producer and consumed by Consumers, all of which run on cores different
// from the producer's. Consumers running on the producer's own core are
// served by double buffering (Section III-B) and are not listed here.
type SharedLabel struct {
	Label     *Label
	Producer  *Task
	Consumers []*Task
}

// System is a complete platform + application instance.
type System struct {
	NumCores int
	Tasks    []*Task
	Labels   []*Label

	byTaskName  map[string]*Task
	byLabelName map[string]*Label
	capacities  map[MemoryID]int64
}

// NewSystem creates an empty system with numCores cores.
// It panics if numCores < 1 (a configuration bug, not a runtime condition).
func NewSystem(numCores int) *System {
	if numCores < 1 {
		panic("model: NewSystem requires at least one core")
	}
	return &System{
		NumCores:    numCores,
		byTaskName:  make(map[string]*Task),
		byLabelName: make(map[string]*Label),
	}
}

// GlobalMemory returns the MemoryID of the shared global memory M_G.
func (s *System) GlobalMemory() MemoryID { return MemoryID(s.NumCores) }

// LocalMemory returns the MemoryID of the local memory of core c.
func (s *System) LocalMemory(c CoreID) MemoryID { return MemoryID(c) }

// NumMemories returns the number of memories (N locals + 1 global).
func (s *System) NumMemories() int { return s.NumCores + 1 }

// AddTask appends a task and returns it. Priority defaults to the insertion
// order; call AssignRateMonotonicPriorities to re-derive priorities from
// periods.
func (s *System) AddTask(name string, period, wcet timeutil.Time, core CoreID) (*Task, error) {
	if name == "" {
		return nil, fmt.Errorf("model: task name must be non-empty")
	}
	if _, dup := s.byTaskName[name]; dup {
		return nil, fmt.Errorf("model: duplicate task name %q", name)
	}
	if period <= 0 {
		return nil, fmt.Errorf("model: task %q has non-positive period %v", name, period)
	}
	if wcet < 0 || wcet > period {
		return nil, fmt.Errorf("model: task %q has WCET %v outside [0, period=%v]", name, wcet, period)
	}
	if core < 0 || int(core) >= s.NumCores {
		return nil, fmt.Errorf("model: task %q assigned to invalid core %d", name, core)
	}
	t := &Task{
		ID:       TaskID(len(s.Tasks)),
		Name:     name,
		Period:   period,
		WCET:     wcet,
		Core:     core,
		Priority: len(s.Tasks),
	}
	s.Tasks = append(s.Tasks, t)
	s.byTaskName[name] = t
	return t, nil
}

// MustAddTask is AddTask panicking on error, for static test/example setups.
func (s *System) MustAddTask(name string, period, wcet timeutil.Time, core CoreID) *Task {
	t, err := s.AddTask(name, period, wcet, core)
	if err != nil {
		panic(err)
	}
	return t
}

// AddLabel appends a label written by writer and read by readers.
func (s *System) AddLabel(name string, size int64, writer *Task, readers ...*Task) (*Label, error) {
	if name == "" {
		return nil, fmt.Errorf("model: label name must be non-empty")
	}
	if _, dup := s.byLabelName[name]; dup {
		return nil, fmt.Errorf("model: duplicate label name %q", name)
	}
	if size <= 0 {
		return nil, fmt.Errorf("model: label %q has non-positive size %d", name, size)
	}
	if writer == nil {
		return nil, fmt.Errorf("model: label %q has no writer", name)
	}
	seen := make(map[TaskID]bool, len(readers))
	ids := make([]TaskID, 0, len(readers))
	for _, r := range readers {
		if r == nil {
			return nil, fmt.Errorf("model: label %q has a nil reader", name)
		}
		if r.ID == writer.ID {
			return nil, fmt.Errorf("model: label %q read by its own writer %q; model a state variable locally instead", name, r.Name)
		}
		if seen[r.ID] {
			return nil, fmt.Errorf("model: label %q lists reader %q twice", name, r.Name)
		}
		seen[r.ID] = true
		ids = append(ids, r.ID)
	}
	l := &Label{
		ID:      LabelID(len(s.Labels)),
		Name:    name,
		Size:    size,
		Writer:  writer.ID,
		Readers: ids,
	}
	s.Labels = append(s.Labels, l)
	s.byLabelName[name] = l
	return l, nil
}

// MustAddLabel is AddLabel panicking on error, for static test/example setups.
func (s *System) MustAddLabel(name string, size int64, writer *Task, readers ...*Task) *Label {
	l, err := s.AddLabel(name, size, writer, readers...)
	if err != nil {
		panic(err)
	}
	return l
}

// TaskByName returns the task with the given name, or nil.
func (s *System) TaskByName(name string) *Task { return s.byTaskName[name] }

// LabelByName returns the label with the given name, or nil.
func (s *System) LabelByName(name string) *Label { return s.byLabelName[name] }

// Task returns the task with the given ID.
func (s *System) Task(id TaskID) *Task { return s.Tasks[id] }

// Label returns the label with the given ID.
func (s *System) Label(id LabelID) *Label { return s.Labels[id] }

// TasksOnCore returns the tasks of Gamma_k in ID order.
func (s *System) TasksOnCore(c CoreID) []*Task {
	var out []*Task
	for _, t := range s.Tasks {
		if t.Core == c {
			out = append(out, t)
		}
	}
	return out
}

// AssignRateMonotonicPriorities assigns per-core unique priorities by
// increasing period (ties broken by task ID). Smaller value = higher
// priority.
func (s *System) AssignRateMonotonicPriorities() {
	for c := 0; c < s.NumCores; c++ {
		ts := s.TasksOnCore(CoreID(c))
		sort.SliceStable(ts, func(i, j int) bool {
			if ts[i].Period != ts[j].Period {
				return ts[i].Period < ts[j].Period
			}
			return ts[i].ID < ts[j].ID
		})
		for p, t := range ts {
			t.Priority = p
		}
	}
}

// Hyperperiod returns H, the LCM of all task periods.
func (s *System) Hyperperiod() (timeutil.Time, error) {
	if len(s.Tasks) == 0 {
		return 0, fmt.Errorf("model: system has no tasks")
	}
	ps := make([]timeutil.Time, len(s.Tasks))
	for i, t := range s.Tasks {
		ps[i] = t.Period
	}
	return timeutil.Hyperperiod(ps...)
}

// SharedLabels extracts the inter-core shared labels: for each label, the
// consumers running on cores different from the producer's core. Labels with
// no such consumer (purely core-local communication, handled by double
// buffering) are omitted. The result is ordered by label ID, consumers by
// task ID.
func (s *System) SharedLabels() []SharedLabel {
	var out []SharedLabel
	for _, l := range s.Labels {
		w := s.Tasks[l.Writer]
		var consumers []*Task
		for _, rid := range l.Readers {
			r := s.Tasks[rid]
			if r.Core != w.Core {
				consumers = append(consumers, r)
			}
		}
		if len(consumers) == 0 {
			continue
		}
		sort.Slice(consumers, func(i, j int) bool { return consumers[i].ID < consumers[j].ID })
		out = append(out, SharedLabel{Label: l, Producer: w, Consumers: consumers})
	}
	return out
}

// SharedBetween returns the labels of L^S(tau_p, tau_c): inter-core shared
// labels written by p and read by c, in label-ID order. Empty if p and c run
// on the same core.
func (s *System) SharedBetween(p, c *Task) []*Label {
	if p.Core == c.Core {
		return nil
	}
	var out []*Label
	for _, l := range s.Labels {
		if l.Writer != p.ID {
			continue
		}
		for _, r := range l.Readers {
			if r == c.ID {
				out = append(out, l)
				break
			}
		}
	}
	return out
}

// Communicates reports whether tasks a and b have any inter-core shared
// label in either direction, i.e. L^S(a,b) != {} or L^S(b,a) != {}.
func (s *System) Communicates(a, b *Task) bool {
	return len(s.SharedBetween(a, b)) > 0 || len(s.SharedBetween(b, a)) > 0
}

// Validate checks structural consistency: non-negative priorities unique
// per core, reader/writer IDs in range, and utilization not exceeding 1
// per core (necessary condition for the schedulability hypothesis of
// Section III-A). Negative priorities are reserved: the LET overheads
// (DMA programming, ISR) run above every task.
func (s *System) Validate() error {
	if len(s.Tasks) == 0 {
		return fmt.Errorf("model: system has no tasks")
	}
	for _, t := range s.Tasks {
		if t.Priority < 0 {
			return fmt.Errorf("model: task %q has negative priority %d (the LET overheads outrank every task)", t.Name, t.Priority)
		}
	}
	for c := 0; c < s.NumCores; c++ {
		seen := make(map[int]string)
		var utilNum, utilDen float64
		_ = utilDen
		utilNum = 0
		for _, t := range s.TasksOnCore(CoreID(c)) {
			if prev, dup := seen[t.Priority]; dup {
				return fmt.Errorf("model: tasks %q and %q share priority %d on core %d", prev, t.Name, t.Priority, c)
			}
			seen[t.Priority] = t.Name
			utilNum += float64(t.WCET) / float64(t.Period)
		}
		if utilNum > 1.0+1e-12 {
			return fmt.Errorf("model: core %d is over-utilized (U=%.3f)", c, utilNum)
		}
	}
	for _, l := range s.Labels {
		if int(l.Writer) < 0 || int(l.Writer) >= len(s.Tasks) {
			return fmt.Errorf("model: label %q has out-of-range writer %d", l.Name, l.Writer)
		}
		for _, r := range l.Readers {
			if int(r) < 0 || int(r) >= len(s.Tasks) {
				return fmt.Errorf("model: label %q has out-of-range reader %d", l.Name, r)
			}
		}
	}
	return nil
}

// Utilization returns the total WCET/Period utilization of core c.
func (s *System) Utilization(c CoreID) float64 {
	var u float64
	for _, t := range s.TasksOnCore(c) {
		u += float64(t.WCET) / float64(t.Period)
	}
	return u
}

// SetMemoryCapacity records the capacity in bytes of a memory (0 =
// unlimited, the default). Scratchpads on AURIX-class parts are tens to a
// few hundred KiB, so label placement must respect it.
func (s *System) SetMemoryCapacity(m MemoryID, bytes int64) {
	if s.capacities == nil {
		s.capacities = make(map[MemoryID]int64)
	}
	s.capacities[m] = bytes
}

// MemoryCapacity returns the capacity of memory m in bytes (0 = unlimited).
func (s *System) MemoryCapacity(m MemoryID) int64 { return s.capacities[m] }
