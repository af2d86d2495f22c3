package milp_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"letdma/internal/milp"
	"letdma/internal/milptest"
)

var updateKernelGolden = flag.Bool("update", false, "regenerate testdata/kernel_golden.json (status, objective, nodes, iters and kernel counter pins) from the current kernel")

// kernelGoldenRow pins one corpus instance. Status and Obj were produced by
// the dense-inverse kernel immediately before its removal and act as the
// differential oracle: the sparse LU kernel must reproduce the status
// exactly and the objective to 1e-9. Nodes, Iters and Kernel pin the
// current kernel's deterministic trajectory; any change to pivoting,
// pricing, refactorization or the warm/cold routing shows up here before it
// shows up anywhere else.
type kernelGoldenRow struct {
	Name   string           `json:"name"`
	Status string           `json:"status"`
	Obj    string           `json:"obj"` // %.17g of Solution.Obj; "" when no incumbent
	Nodes  int              `json:"nodes"`
	Iters  int              `json:"iters"`
	Kernel milp.KernelStats `json:"kernel"`
}

func kernelGoldenPath(t *testing.T) string {
	t.Helper()
	return filepath.Join("testdata", "kernel_golden.json")
}

// loadKernelGolden reads the committed golden rows.
func loadKernelGolden(t *testing.T) []kernelGoldenRow {
	t.Helper()
	buf, err := os.ReadFile(kernelGoldenPath(t))
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	var want []kernelGoldenRow
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestKernelGolden is the dense-vs-sparse differential gate plus the
// trajectory pin of the simplex kernel, run over the shared milptest corpus
// with the depth-first engine.
func TestKernelGolden(t *testing.T) {
	corpus := milptest.Corpus()
	rows := make([]kernelGoldenRow, 0, len(corpus))
	for _, c := range corpus {
		sol, err := milp.Solve(c.M, milp.Params{TimeLimit: 30 * time.Second})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		row := kernelGoldenRow{Name: c.Name, Status: sol.Status.String(), Nodes: sol.Nodes, Iters: sol.SimplexIters, Kernel: sol.Kernel}
		if sol.X != nil {
			row.Obj = fmt.Sprintf("%.17g", sol.Obj)
		}
		rows = append(rows, row)
	}

	path := kernelGoldenPath(t)
	if *updateKernelGolden {
		buf, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden rows to %s", len(rows), path)
		return
	}

	want := loadKernelGolden(t)
	if len(want) != len(rows) {
		t.Fatalf("golden has %d rows, corpus has %d (run with -update?)", len(want), len(rows))
	}
	for i, g := range want {
		got := rows[i]
		if got.Name != g.Name {
			t.Fatalf("row %d: corpus instance %q does not match golden %q", i, got.Name, g.Name)
		}
		if got.Status != g.Status {
			t.Errorf("%s: status %s, golden %s", g.Name, got.Status, g.Status)
			continue
		}
		if (got.Obj == "") != (g.Obj == "") {
			t.Errorf("%s: incumbent presence %q vs golden %q", g.Name, got.Obj, g.Obj)
			continue
		}
		if g.Obj != "" {
			var wantObj, gotObj float64
			fmt.Sscanf(g.Obj, "%g", &wantObj)
			fmt.Sscanf(got.Obj, "%g", &gotObj)
			if math.Abs(gotObj-wantObj) > 1e-9*(1+math.Abs(wantObj)) {
				t.Errorf("%s: obj %s, golden %s", g.Name, got.Obj, g.Obj)
			}
		}
		if got.Nodes != g.Nodes || got.Iters != g.Iters {
			t.Errorf("%s: trajectory (nodes=%d iters=%d) drifted from pinned (nodes=%d iters=%d)",
				g.Name, got.Nodes, got.Iters, g.Nodes, g.Iters)
		}
		if got.Kernel != g.Kernel {
			t.Errorf("%s: kernel counters drifted:\n got  %+v\n want %+v", g.Name, got.Kernel, g.Kernel)
		}
	}
}

// TestFastSearchKernelGolden runs the FastSearch engine over the full
// 51-row corpus and holds it to the golden STATUS and OBJECTIVE. With
// several workers Nodes/Iters are deliberately NOT pinned: the node order
// depends on goroutine scheduling (work stealing, racing incumbent
// publications), so those counters are not a function of the instance. The
// exactness claim it must still honor is the returned optimum — the same
// contract verify.CheckOptimal certifies end-to-end — which is exactly what
// the golden Status/Obj columns capture. A single worker has no one to race
// and runs the same per-node steps as the depth-first engine, so at
// workers=1 Nodes, Iters and every kernel counter must match the golden
// too.
func TestFastSearchKernelGolden(t *testing.T) {
	want := loadKernelGolden(t)
	corpus := milptest.Corpus()
	if len(want) != len(corpus) {
		t.Fatalf("golden has %d rows, corpus has %d (run with -update?)", len(want), len(corpus))
	}
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			corpus := milptest.Corpus()
			for i, c := range corpus {
				g := want[i]
				sol, err := milp.Solve(c.M, milp.Params{
					FastSearch: true, Workers: workers, TimeLimit: 30 * time.Second,
				})
				if err != nil {
					t.Fatalf("%s: %v", c.Name, err)
				}
				if sol.Status.String() != g.Status {
					t.Errorf("%s: status %s, golden %s", g.Name, sol.Status, g.Status)
					continue
				}
				if workers == 1 && (sol.Nodes != g.Nodes || sol.SimplexIters != g.Iters) {
					t.Errorf("%s: single-worker trajectory (nodes=%d iters=%d) differs from the depth-first golden (nodes=%d iters=%d)",
						g.Name, sol.Nodes, sol.SimplexIters, g.Nodes, g.Iters)
				}
				if got := sol.Kernel; workers == 1 && got != g.Kernel {
					t.Errorf("%s: single-worker kernel counters differ from the depth-first golden:\n got  %+v\n want %+v",
						g.Name, got, g.Kernel)
				}
				if g.Obj == "" {
					if sol.X != nil {
						t.Errorf("%s: unexpected incumbent obj=%g", g.Name, sol.Obj)
					}
					continue
				}
				var wantObj float64
				fmt.Sscanf(g.Obj, "%g", &wantObj)
				if math.Abs(sol.Obj-wantObj) > 1e-9*(1+math.Abs(wantObj)) {
					t.Errorf("%s: obj %.17g, golden %s", g.Name, sol.Obj, g.Obj)
				}
				if sol.X != nil {
					if err := c.M.CheckFeasible(sol.X, 1e-6); err != nil {
						t.Errorf("%s: FastSearch incumbent infeasible: %v", g.Name, err)
					}
				}
			}
		})
	}
}

// TestWorkspaceReuse solves the corpus back to back through one depth-first
// workspace, alternating between the instances with the fewest and the
// most rows so that the workspace shrinks and grows between solves. Every
// Solution (wall-clock Runtime scrubbed) must be DeepEqual to the same
// solve in a fresh workspace: nothing a solve leaves behind may reach the
// next one.
func TestWorkspaceReuse(t *testing.T) {
	corpus := milptest.Corpus()
	byRows := make([]int, len(corpus))
	for i := range byRows {
		byRows[i] = i
	}
	sort.SliceStable(byRows, func(a, b int) bool {
		return len(corpus[byRows[a]].M.Cons) < len(corpus[byRows[b]].M.Cons)
	})
	var order []int
	for lo, hi := 0, len(byRows)-1; lo <= hi; lo, hi = lo+1, hi-1 {
		order = append(order, byRows[lo])
		if lo != hi {
			order = append(order, byRows[hi])
		}
	}
	if first, last := len(corpus[order[0]].M.Cons), len(corpus[order[1]].M.Cons); first == last {
		t.Fatalf("corpus row counts do not vary (%d): the interleaving tests nothing", first)
	}

	ws := new(milp.Workspace)
	params := milp.Params{TimeLimit: 30 * time.Second}
	for _, i := range order {
		c := corpus[i]
		fresh, err := milp.Solve(c.M, params)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		reused, err := milp.SolveDFSWith(c.M, params, ws)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		fresh.Runtime, reused.Runtime = 0, 0
		if !reflect.DeepEqual(fresh, reused) {
			t.Errorf("%s (%d rows): reused workspace gave\n%+v\nfresh workspace gave\n%+v",
				c.Name, len(c.M.Cons), reused, fresh)
		}
	}
}
