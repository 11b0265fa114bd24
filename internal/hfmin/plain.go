package hfmin

import "repro/internal/logic"

// MinimizePlain computes a two-level cover of the specification ignoring
// hazards: it covers the ON-set with ordinary prime implicants, minimizing
// product count first and literals second. It exists as the ablation
// baseline for the hazard-free machinery (how much do required cubes and
// privileged-cube shrinking cost?).
func MinimizePlain(spec Spec) (Result, error) {
	res, err := Analyze(spec)
	if err != nil {
		return res, err
	}
	// Rows: the ON cubes themselves must be covered (as unions, but for the
	// covering matrix we require single-product containment of each ON cube;
	// for burst-mode specs ON cubes are exactly the required cubes so this
	// matches the hazard-free problem structure minus the dhf constraints).
	res.Required = nil
	seen := map[[2]uint64]bool{}
	for _, c := range res.OnSet.Cubes {
		if !seen[c.Key()] {
			seen[c.Key()] = true
			res.Required = append(res.Required, c)
		}
	}
	if len(res.Required) == 0 {
		res.Cover = logic.Cover{N: spec.N}
		res.Exact = true
		return res, nil
	}
	res.Privileged = nil
	primes, truncated := logic.PrimesContaining(res.Required, res.OffSet)
	res.Primes = primes
	prob := &logic.CoveringProblem{NumCols: len(res.Primes)}
	prob.Cost = make([]int, len(res.Primes))
	const productWeight = 1 << 12
	for i, p := range res.Primes {
		prob.Cost[i] = productWeight + p.Literals()
	}
	for _, r := range res.Required {
		var row []int
		for i, p := range res.Primes {
			if p.Contains(r) {
				row = append(row, i)
			}
		}
		prob.Rows = append(prob.Rows, row)
	}
	cols, exact := prob.Solve()
	if cols == nil {
		return res, ErrInfeasible
	}
	res.Exact = exact && !truncated
	res.Cover = logic.Cover{N: spec.N}
	for _, c := range cols {
		res.Cover.Add(res.Primes[c])
	}
	return res, nil
}
