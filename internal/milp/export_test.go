package milp

// Workspace is the node-solve workspace, exported to the external tests.
type Workspace = simplexState

// SolveDFSWith runs the depth-first engine with every node solve in ws, so
// tests can reuse one workspace across solves of different models.
func SolveDFSWith(m *Model, p Params, ws *Workspace) (*Solution, error) {
	return solveDFS(m, p, ws)
}
