package logic

import "fmt"

// SolverVersion identifies the observable behaviour of hazard-free
// minimization below the spec: prime enumeration (expansion order, the
// MaxExpansions cap and how truncation is reported) and the covering
// solvers (branching order, reductions, tie-breaks, cost weights). It is
// folded into internal/memo's cache key and into internal/stage's synth
// key, so bumping it rejects persisted results produced by older code
// instead of silently replaying them. Bump on ANY change that can alter a
// returned cover or its Exact flag, even one of equal cost.
const SolverVersion = "covering-v3"

// Solver selects a covering backend. The zero value is SolverBB, the
// exact branch-and-bound solver; SolverGreedy is the only other value.
type Solver int

// Covering solver backends. The numeric values are part of the memo and
// stage cache keys (internal/memo.Key, internal/stage's synth key); do not
// renumber them.
const (
	// SolverBB is the deterministic branch-and-bound solver (bitset
	// matrix, dual-ascent lower bound, dominance reductions).
	SolverBB Solver = 0
	// SolverGreedy is the non-exact greedy heuristic (best cost/coverage
	// ratio first).
	SolverGreedy Solver = 2
)

// String returns the backend's short name ("bb" or "greedy").
func (s Solver) String() string {
	switch s {
	case SolverBB:
		return "bb"
	case SolverGreedy:
		return "greedy"
	default:
		return fmt.Sprintf("Solver(%d)", int(s))
	}
}

// SolveWith dispatches to the selected backend. Greedy reports exact =
// false (its cover is feasible but unproven); branch-and-bound reports
// whether the search completed within the step budget. Any value other
// than SolverGreedy runs branch-and-bound.
func (p *CoveringProblem) SolveWith(s Solver) (cols []int, exact bool) {
	if s == SolverGreedy {
		return p.SolveGreedy(), false
	}
	return p.Solve()
}
