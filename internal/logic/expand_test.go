package logic

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestExpansionsNoOff(t *testing.T) {
	exps, _ := Expansions(MustCube("010"), NewCover(3))
	if len(exps) != 1 || !exps[0].IsFull() {
		t.Errorf("expansions with no off-set = %v, want universe", exps)
	}
}

func TestExpansionsBlocked(t *testing.T) {
	// Off-set 11-: seed 00- can expand var0 or var1 but not both.
	exps, _ := Expansions(MustCube("00-"), MustCover(3, "11-"))
	if len(exps) != 2 {
		t.Fatalf("got %d expansions (%v), want 2", len(exps), exps)
	}
	got := map[string]bool{}
	for _, e := range exps {
		got[e.String()] = true
	}
	if !got["0--"] || !got["-0-"] {
		t.Errorf("expansions = %v, want {0--, -0-}", got)
	}
}

func TestExpansionsSeedIntersectsOff(t *testing.T) {
	if exps, _ := Expansions(MustCube("0--"), MustCover(3, "01-")); exps != nil {
		t.Errorf("seed intersecting off-set must have no expansion, got %v", exps)
	}
}

func TestExpansionsEmptySeed(t *testing.T) {
	if exps, _ := Expansions(EmptyCube(3), NewCover(3)); exps != nil {
		t.Errorf("empty seed: got %v", exps)
	}
}

func TestExpansionsAreMaximalAndDisjointFromOff(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 2 + rr.Intn(7)
		s := randomCube(rr, n)
		// Minterm-ify seed so it rarely intersects off.
		for i := 0; i < n; i++ {
			if s.Get(i) == Dash && rr.Intn(2) == 0 {
				s = s.With(i, Zero)
			}
		}
		off := randomCover(rr, n, 1+rr.Intn(3))
		if off.IntersectsCube(s) {
			return true // not a valid instance
		}
		exps, truncated := Expansions(s, off)
		if truncated {
			return false // at most 8 bound variables: far below the cap
		}
		if len(exps) == 0 {
			return false // a non-intersecting seed always has itself as expansion
		}
		for _, e := range exps {
			if !e.Contains(s) {
				return false
			}
			if off.IntersectsCube(e) {
				return false
			}
			// Maximality: freeing any bound variable hits the off-set.
			for i := 0; i < n; i++ {
				if e.Get(i) != Dash {
					if !off.IntersectsCube(e.Free(i)) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestPrimesContaining(t *testing.T) {
	// f with off-set {11-}; primes of complement(off) are 0-- and -0-.
	primes, truncated := PrimesContaining([]Cube{MustCube("000"), MustCube("001")}, MustCover(3, "11-"))
	if truncated {
		t.Error("3-variable prime enumeration reported truncation")
	}
	got := map[string]bool{}
	for _, p := range primes {
		got[p.String()] = true
	}
	if !got["0--"] || !got["-0-"] {
		t.Errorf("primes = %v, want 0-- and -0-", got)
	}
	if len(primes) != 2 {
		t.Errorf("got %d primes, want 2", len(primes))
	}
}

func TestMinimalHittingSets(t *testing.T) {
	rows := [][]int{{0, 1}, {1, 2}}
	hs, truncated := minimalHittingSets(rows, 100)
	if truncated {
		t.Error("2 hitting sets under a limit of 100 reported truncation")
	}
	// Minimal hitting sets: {1}, {0,2}.
	if len(hs) != 2 {
		t.Fatalf("got %d hitting sets: %v", len(hs), hs)
	}
	sizes := map[int]int{}
	for _, h := range hs {
		sizes[bits.OnesCount64(h)]++
	}
	if sizes[1] != 1 || sizes[2] != 1 {
		t.Errorf("hitting set sizes = %v, want one of size 1 and one of size 2", sizes)
	}
}

// TestExpansionsReportTruncation: 13 off-cubes, each separated from a
// 26-literal seed by its own disjoint variable pair, have 2^13 = 8192
// minimal hitting sets — twice MaxExpansions — so the enumeration must stop
// at the cap and say so, both in Expansions and in PrimesContaining.
func TestExpansionsReportTruncation(t *testing.T) {
	const pairs = 13
	seed := FullCube(2 * pairs)
	for v := 0; v < 2*pairs; v++ {
		seed = seed.With(v, Zero)
	}
	off := NewCover(2 * pairs)
	for i := 0; i < pairs; i++ {
		off.Add(FullCube(2*pairs).With(2*i, One).With(2*i+1, One))
	}
	exps, truncated := Expansions(seed, off)
	if !truncated {
		t.Errorf("Expansions: %d expansions of 8192, truncation not reported", len(exps))
	}
	if len(exps) != MaxExpansions {
		t.Errorf("Expansions: got %d, want the cap %d", len(exps), MaxExpansions)
	}
	if _, truncated := PrimesContaining([]Cube{seed}, off); !truncated {
		t.Error("PrimesContaining: truncation not reported")
	}

	// One pair fewer: 4096 hitting sets fit exactly under the cap.
	small := NewCover(2 * pairs)
	for i := 0; i < pairs-1; i++ {
		small.Add(off.Cubes[i])
	}
	exps, truncated = Expansions(seed, small)
	if truncated || len(exps) != MaxExpansions {
		t.Errorf("12 pairs: got %d expansions, truncated=%v; want %d, false", len(exps), truncated, MaxExpansions)
	}
}
