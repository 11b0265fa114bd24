package logic

import "sort"

// MaxExpansions caps the number of maximal expansions enumerated for a
// single cube. Enumeration is depth-first over the blocking rows sorted by
// size, so a truncated run keeps the first MaxExpansions expansions in that
// order (not the largest ones); Expansions and PrimesContaining report the
// truncation so callers can drop any exactness claim.
const MaxExpansions = 4096

// Expansions returns all maximal supercubes of seed that are disjoint from
// every cube of off. These are exactly the prime implicants of the function
// complement(off) that contain seed.
//
// The computation reduces to enumerating the minimal hitting sets of the
// "blocking matrix": for each off cube o intersected with the current
// expansion candidate, at least one variable on which seed conflicts with o
// must keep its literal. Enumeration is capped at MaxExpansions;
// truncated reports that the cap cut it short, so the result may miss
// primes.
func Expansions(seed Cube, off Cover) (exps []Cube, truncated bool) {
	if seed.IsEmpty() {
		return nil, false
	}
	n := seed.N()
	// Variables bound in seed are the candidates for raising.
	var boundVars []int
	for i := 0; i < n; i++ {
		if seed.Get(i) != Dash {
			boundVars = append(boundVars, i)
		}
	}
	// Build blocking rows: for each off cube, the set of seed variables that
	// separate it (conflicting literal). An off cube with no separating
	// variable intersects seed itself: no expansion exists.
	free := seed
	for _, v := range boundVars {
		free = free.Free(v)
	}
	var rows [][]int
	for _, o := range off.Cubes {
		if !o.Intersects(free) {
			continue // off cube cannot be reached even fully expanded
		}
		var row []int
		for _, v := range boundVars {
			sv, ov := seed.Get(v), o.Get(v)
			if (sv == Zero && ov == One) || (sv == One && ov == Zero) {
				row = append(row, v)
			}
		}
		if len(row) == 0 {
			return nil, false // seed intersects the off-set
		}
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		return []Cube{FullCube(n)}, false
	}
	hs, truncated := minimalHittingSets(rows, MaxExpansions)
	out := make([]Cube, 0, len(hs))
	for _, keep := range hs {
		c := seed
		for _, v := range boundVars {
			if keep&(1<<uint(v)) == 0 {
				c = c.Free(v)
			}
		}
		out = append(out, c)
	}
	return out, truncated
}

// minimalHittingSets enumerates minimal hitting sets of the given rows
// (each row is a set of variable indices below 64; a hitting set picks at
// least one element of every row). The result is a list of "keep" sets as
// variable bitmasks. Enumeration stops at limit sets; truncated reports
// that part of the search was left unexplored.
func minimalHittingSets(rows [][]int, limit int) (sets []uint64, truncated bool) {
	// Sort rows by size: small rows first prunes better.
	sorted := append([][]int(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool { return len(sorted[i]) < len(sorted[j]) })

	hit := func(row []int, chosen uint64) bool {
		for _, v := range row {
			if chosen&(1<<uint(v)) != 0 {
				return true
			}
		}
		return false
	}
	var rec func(idx int, chosen uint64)
	rec = func(idx int, chosen uint64) {
		if len(sets) >= limit {
			truncated = true
			return
		}
		// Skip rows already hit.
		for idx < len(sorted) && hit(sorted[idx], chosen) {
			idx++
		}
		if idx == len(sorted) {
			// Candidate complete; check minimality against found sets and
			// record. Supersets of existing results are discarded.
			for _, r := range sets {
				if r&^chosen == 0 {
					return
				}
			}
			// Remove any previously found supersets of chosen.
			kept := sets[:0]
			for _, r := range sets {
				if chosen&^r != 0 {
					kept = append(kept, r)
				}
			}
			sets = append(kept, chosen)
			return
		}
		for _, v := range sorted[idx] {
			rec(idx+1, chosen|1<<uint(v))
		}
	}
	rec(0, 0)
	return sets, truncated
}

// PrimesContaining returns all prime implicants of the function whose
// off-set is off (with everything else on or don't-care) that contain at
// least one of the seed cubes. Duplicates are removed. truncated reports
// that some seed's expansions hit MaxExpansions, so primes may be missing.
func PrimesContaining(seeds []Cube, off Cover) (primes []Cube, truncated bool) {
	seen := map[[2]uint64]bool{}
	var out []Cube
	for _, s := range seeds {
		exps, cut := Expansions(s, off)
		truncated = truncated || cut
		for _, p := range exps {
			k := p.Key()
			if !seen[k] {
				seen[k] = true
				out = append(out, p)
			}
		}
	}
	// Drop non-maximal cubes (a cube from one seed may be contained in an
	// expansion of another seed).
	var maximal []Cube
	for i, p := range out {
		contained := false
		for j, q := range out {
			if i != j && q.Contains(p) && !p.Contains(q) {
				contained = true
				break
			}
		}
		if !contained {
			maximal = append(maximal, p)
		}
	}
	// Deduplicate equal cubes kept twice by the asymmetric test above.
	seen = map[[2]uint64]bool{}
	var uniq []Cube
	for _, p := range maximal {
		if !seen[p.Key()] {
			seen[p.Key()] = true
			uniq = append(uniq, p)
		}
	}
	return uniq, truncated
}
