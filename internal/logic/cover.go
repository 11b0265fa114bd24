package logic

import (
	"fmt"
	"sort"
	"strings"
)

// Cover is a set of cubes over a common variable count, interpreted as the
// union (logical OR) of its cubes.
type Cover struct {
	N     int    // number of variables of every cube
	Cubes []Cube // the products, in insertion order
}

// NewCover builds a cover over n variables from the given cubes, dropping
// empty ones. It panics on arity mismatches.
func NewCover(n int, cubes ...Cube) Cover {
	checkN(n)
	cv := Cover{N: n}
	for _, c := range cubes {
		if c.N() != n {
			panic(fmt.Sprintf("logic: cover arity %d, cube arity %d", n, c.N()))
		}
		if !c.IsEmpty() {
			cv.Cubes = append(cv.Cubes, c)
		}
	}
	return cv
}

// ParseCover parses whitespace-separated positional cube strings.
func ParseCover(n int, s string) (Cover, error) {
	cv := Cover{N: n}
	for _, f := range strings.Fields(s) {
		c, err := ParseCube(f)
		if err != nil {
			return Cover{}, err
		}
		if c.N() != n {
			return Cover{}, fmt.Errorf("logic: cube %q has arity %d, want %d", f, c.N(), n)
		}
		cv.Cubes = append(cv.Cubes, c)
	}
	return cv, nil
}

// MustCover is ParseCover that panics on error.
func MustCover(n int, s string) Cover {
	cv, err := ParseCover(n, s)
	if err != nil {
		panic(err)
	}
	return cv
}

// Add appends a non-empty cube to the cover.
func (cv *Cover) Add(c Cube) {
	if c.N() != cv.N {
		panic(fmt.Sprintf("logic: cover arity %d, cube arity %d", cv.N, c.N()))
	}
	if !c.IsEmpty() {
		cv.Cubes = append(cv.Cubes, c)
	}
}

// Len returns the number of cubes (products) in the cover.
func (cv Cover) Len() int { return len(cv.Cubes) }

// Literals returns the total literal count over all cubes.
func (cv Cover) Literals() int {
	total := 0
	for _, c := range cv.Cubes {
		total += c.Literals()
	}
	return total
}

// ContainsMinterm reports whether any cube of the cover contains minterm m.
func (cv Cover) ContainsMinterm(m Cube) bool {
	for _, c := range cv.Cubes {
		if c.Contains(m) {
			return true
		}
	}
	return false
}

// IntersectsCube reports whether any cube of the cover intersects d.
func (cv Cover) IntersectsCube(d Cube) bool {
	for _, c := range cv.Cubes {
		if c.Intersects(d) {
			return true
		}
	}
	return false
}

// ContainsCube reports whether the union of the cover contains every minterm
// of cube d. This is a single-output cube containment check implemented by
// recursive Shannon expansion (the standard tautology reduction).
func (cv Cover) ContainsCube(d Cube) bool {
	if d.IsEmpty() {
		return true
	}
	// Fast path: a single cube containing d.
	for _, c := range cv.Cubes {
		if c.Contains(d) {
			return true
		}
	}
	// Cofactor the cover with respect to d, then check tautology.
	var cof []Cube
	for _, c := range cv.Cubes {
		if cc, ok := c.Cofactor(d); ok {
			cof = append(cof, cc)
		}
	}
	free := d.zero & d.one & maskN(cv.N) // variables still free in d
	return tautologyOn(cof, free, cv.N)
}

// Tautology reports whether the cover covers the entire space.
func (cv Cover) Tautology() bool {
	return tautologyOn(cv.Cubes, maskN(cv.N), cv.N)
}

// tautologyOn checks whether cubes cover all assignments of the variables in
// the freeVars mask (other variables are irrelevant: every cube is assumed
// dashed outside freeVars).
func tautologyOn(cubes []Cube, freeVars uint64, n int) bool {
	if len(cubes) == 0 {
		return freeVars == 0 && false // empty cover covers nothing (even a point space needs a cube)
	}
	// A full cube covers everything.
	for _, c := range cubes {
		if c.zero&freeVars == freeVars && c.one&freeVars == freeVars {
			return true
		}
	}
	// Pick a splitting variable: a free variable bound in some cube.
	split := -1
	for i := 0; i < n; i++ {
		bit := uint64(1) << uint(i)
		if freeVars&bit == 0 {
			continue
		}
		for _, c := range cubes {
			z := c.zero&bit != 0
			o := c.one&bit != 0
			if z != o {
				split = i
				break
			}
		}
		if split >= 0 {
			break
		}
	}
	if split < 0 {
		// All cubes dashed on all free variables but none full: since every
		// cube is dashed on every free var, any single cube covers the free
		// space.
		return true
	}
	bit := uint64(1) << uint(split)
	rest := freeVars &^ bit
	var c0, c1 []Cube
	for _, c := range cubes {
		if c.zero&bit != 0 {
			c0 = append(c0, c)
		}
		if c.one&bit != 0 {
			c1 = append(c1, c)
		}
	}
	return tautologyOn(c0, rest, n) && tautologyOn(c1, rest, n)
}

// Irredundant returns a cover with cubes removed that are contained in the
// union of the remaining cubes. Cubes with fewer literals (larger cubes) are
// preferred; the result is irredundant but not necessarily minimum.
func (cv Cover) Irredundant() Cover {
	cubes := append([]Cube(nil), cv.Cubes...)
	// Larger cubes first so small redundant cubes are dropped.
	sort.Slice(cubes, func(i, j int) bool { return cubes[i].Literals() < cubes[j].Literals() })
	for i := len(cubes) - 1; i >= 0; i-- {
		others := Cover{N: cv.N}
		others.Cubes = append(others.Cubes, cubes[:i]...)
		others.Cubes = append(others.Cubes, cubes[i+1:]...)
		if others.ContainsCube(cubes[i]) {
			cubes = append(cubes[:i], cubes[i+1:]...)
		}
	}
	return NewCover(cv.N, cubes...)
}

// Equal reports whether two covers denote the same Boolean function.
func (cv Cover) Equal(other Cover) bool {
	if cv.N != other.N {
		return false
	}
	for _, c := range cv.Cubes {
		if !other.ContainsCube(c) {
			return false
		}
	}
	for _, c := range other.Cubes {
		if !cv.ContainsCube(c) {
			return false
		}
	}
	return true
}

// String renders the cover as whitespace-separated cubes in a stable order.
func (cv Cover) String() string {
	ss := make([]string, len(cv.Cubes))
	for i, c := range cv.Cubes {
		ss[i] = c.String()
	}
	sort.Strings(ss)
	return strings.Join(ss, " ")
}

// Complement returns a cover of the complement of cv, computed by recursive
// Shannon expansion. Intended for the modest function sizes of controller
// synthesis.
func (cv Cover) Complement() Cover {
	res := complementRec(cv.Cubes, FullCube(cv.N), cv.N)
	return NewCover(cv.N, res...)
}

func complementRec(cubes []Cube, space Cube, n int) []Cube {
	if len(cubes) == 0 {
		return []Cube{space}
	}
	for _, c := range cubes {
		if c.Contains(space) {
			return nil
		}
	}
	// Split on a variable bound in some cube and free in space.
	split := -1
	for i := 0; i < n; i++ {
		if space.Get(i) != Dash {
			continue
		}
		for _, c := range cubes {
			if c.Get(i) == Zero || c.Get(i) == One {
				split = i
				break
			}
		}
		if split >= 0 {
			break
		}
	}
	if split < 0 {
		// All cubes dashed within space but none contains space: impossible
		// unless cubes are empty in space; treat as uncovered.
		return []Cube{space}
	}
	var out []Cube
	for _, v := range []Val{Zero, One} {
		sub := space.With(split, v)
		var kept []Cube
		for _, c := range cubes {
			if c.Get(split) == Dash || c.Get(split) == v {
				kept = append(kept, c)
			}
		}
		out = append(out, complementRec(kept, sub, n)...)
	}
	return out
}
