package model

import (
	"bytes"
	"strings"
	"testing"

	"letdma/internal/timeutil"
)

const sampleJSON = `{
  "cores": 2,
  "tasks": [
    {"name": "prod", "period_us": 10000, "wcet_us": 2000, "core": 0},
    {"name": "cons", "period_us": 20000, "wcet_us": 4000, "core": 1}
  ],
  "labels": [
    {"name": "data", "size": 4096, "writer": "prod", "readers": ["cons"]}
  ],
  "memory_capacities": {"0": 65536, "global": 1048576}
}`

func TestFromJSON(t *testing.T) {
	sys, err := FromJSON(strings.NewReader(sampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumCores != 2 || len(sys.Tasks) != 2 || len(sys.Labels) != 1 {
		t.Fatalf("parsed shape: cores=%d tasks=%d labels=%d", sys.NumCores, len(sys.Tasks), len(sys.Labels))
	}
	p := sys.TaskByName("prod")
	if p.Period != timeutil.Milliseconds(10) || p.WCET != timeutil.Milliseconds(2) {
		t.Errorf("prod timing: %v / %v", p.Period, p.WCET)
	}
	if p.Priority != 0 { // rate monotonic applied: 10ms < 20ms... per core though
		t.Errorf("prod priority = %d", p.Priority)
	}
	if sys.MemoryCapacity(0) != 65536 || sys.MemoryCapacity(sys.GlobalMemory()) != 1<<20 {
		t.Error("capacities not applied")
	}
	l := sys.LabelByName("data")
	if l.Size != 4096 || l.Writer != p.ID {
		t.Errorf("label = %+v", l)
	}
}

func TestFromJSONExplicitPriorities(t *testing.T) {
	in := `{
  "cores": 1,
  "tasks": [
    {"name": "a", "period_us": 1000, "wcet_us": 0, "core": 0, "priority": 5},
    {"name": "b", "period_us": 2000, "wcet_us": 0, "core": 0, "priority": 2}
  ],
  "labels": []
}`
	sys, err := FromJSON(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// Explicit priorities must be preserved (no RM reassignment).
	if sys.TaskByName("a").Priority != 5 || sys.TaskByName("b").Priority != 2 {
		t.Errorf("priorities overridden: a=%d b=%d", sys.TaskByName("a").Priority, sys.TaskByName("b").Priority)
	}
}

// TestFromJSONRejectsNegativePriority: a negative priority would rank a
// task above the LET overheads, which the simulator and the response-time
// analysis both place above every task, so it is an error naming the task.
func TestFromJSONRejectsNegativePriority(t *testing.T) {
	in := `{
  "cores": 1,
  "tasks": [
    {"name": "a", "period_us": 1000, "wcet_us": 0, "core": 0, "priority": 0},
    {"name": "rogue", "period_us": 2000, "wcet_us": 0, "core": 0, "priority": -5}
  ],
  "labels": []
}`
	_, err := FromJSON(strings.NewReader(in))
	if err == nil {
		t.Fatal("a negative priority was accepted")
	}
	if !strings.Contains(err.Error(), `"rogue"`) || !strings.Contains(err.Error(), "-5") {
		t.Errorf("error %q does not name the task and its priority", err)
	}
}

func TestFromJSONErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":       `{`,
		"no cores":       `{"cores": 0, "tasks": [], "labels": []}`,
		"unknown field":  `{"cores": 1, "bogus": 1, "tasks": [], "labels": []}`,
		"unknown writer": `{"cores": 1, "tasks": [{"name":"t","period_us":1000,"wcet_us":0,"core":0}], "labels": [{"name":"l","size":4,"writer":"x","readers":["t"]}]}`,
		"unknown reader": `{"cores": 1, "tasks": [{"name":"t","period_us":1000,"wcet_us":0,"core":0}], "labels": [{"name":"l","size":4,"writer":"t","readers":["x"]}]}`,
		"bad memory":     `{"cores": 1, "tasks": [{"name":"t","period_us":1000,"wcet_us":0,"core":0}], "labels": [], "memory_capacities": {"weird": 4}}`,
		"negative cap":   `{"cores": 1, "tasks": [{"name":"t","period_us":1000,"wcet_us":0,"core":0}], "labels": [], "memory_capacities": {"0": -4}}`,
		"bad task":       `{"cores": 1, "tasks": [{"name":"t","period_us":-5,"wcet_us":0,"core":0}], "labels": []}`,
		"empty":          `{"cores": 1, "tasks": [], "labels": []}`,
	}
	for name, in := range cases {
		if _, err := FromJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	sys, err := FromJSON(strings.NewReader(sampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.ToJSON(&buf); err != nil {
		t.Fatal(err)
	}
	sys2, err := FromJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("round trip re-parse: %v\n%s", err, buf.String())
	}
	if len(sys2.Tasks) != len(sys.Tasks) || len(sys2.Labels) != len(sys.Labels) {
		t.Fatal("round trip lost entities")
	}
	for _, t1 := range sys.Tasks {
		t2 := sys2.TaskByName(t1.Name)
		if t2 == nil || t2.Period != t1.Period || t2.WCET != t1.WCET || t2.Core != t1.Core || t2.Priority != t1.Priority {
			t.Errorf("task %s changed in round trip", t1.Name)
		}
	}
	if sys2.MemoryCapacity(0) != sys.MemoryCapacity(0) {
		t.Error("capacity lost in round trip")
	}
}
