package main

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/bench"
	"repro/internal/cdfg"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/transform"
)

// genPool is the size of the generated-design pool: gen seeds
// 1..genPool under gen.DefaultConfig. cold-compile compiles every usable
// design of the pool, in an order drawn from the run's seed, so every
// seed measures the same population. The pool is large enough for the
// p90 to fall among several heavy designs of similar cost (about 17 of
// the 143 ops take over 0.5 s on 2 CPUs) rather than on one design.
const genPool = 240

// knownFailures are the pool's gen seeds whose synthesis fails at the
// commit the benchmark was written against (hfmin "inconsistent
// specification" on every rung for seeds 13, 43, 45, 52, 97, 146, 180,
// 192 and 233; an invalid machine after the local transforms on seed 78).
// They are a program defect, not an unsupported input. They are kept out
// of the timed corpus so that no timed operation fails, and are submitted
// once after the window on every cold-compile run, which reports how many
// of them still fail.
var knownFailures = []int64{13, 43, 45, 52, 78, 97, 146, 180, 192, 233}

// knownSimDefects are the pool designs whose gate-level netlists disagree
// with the frontend interpreter under the fixed delay seeds at the commit
// the benchmark was written against: the gate-closure defect on gen-6,
// gen-36, gen-70 and gen-193 (loop counter i short while run stays 1) and
// a wrong data register on gen-127 and gen-141. The designs stay in the
// corpus and are counted in sim_failures; they do not make a run
// incorrect. Any other simulation failure does.
var knownSimDefects = []string{"gen-6", "gen-36", "gen-70", "gen-127", "gen-141", "gen-193"}

// editDesigns are the registry designs the edit-loop clients own, in
// client order, largest edit space first; those with fewer than
// minEditNodes editable nodes (gcd has none) are skipped, and clients
// beyond the list own gen designs.
var editDesigns = []string{"ewf", "ar", "diffeq", "fir", "gcd"}

// searchDesigns is the search workload's fixed subset of registry designs.
var searchDesigns = []string{"diffeq", "ar", "fir"}

// maxEditNodes bounds how many nodes an edit chain flips, and so its
// length: 2^maxEditNodes-1 edits.
const maxEditNodes = 8

// minEditNodes is how many editable nodes a gen design needs to be given
// to an edit-loop client.
const minEditNodes = 3

// design is one input document plus what the output checks need.
type design struct {
	Name string
	// Doc is the codec graph document, the only thing the service sees.
	Doc []byte
	// Regs names the registers the gate-level simulation is checked on.
	Regs []string
	// want returns the reference register file (the frontend interpreter
	// or the registry's golden model).
	want func() (map[string]float64, error)
}

// serviceOptions are the pipeline options a default service job runs
// with (see service.Manager.synthesize), at the given worker count.
func serviceOptions(workers int) core.Options {
	return core.Options{
		Level:       core.OptimizedGTLT,
		Transform:   transform.DefaultOptions(),
		Parallelism: workers,
	}.Normalized()
}

func registryDesign(b *bench.Benchmark) (design, error) {
	doc, err := codec.EncodeGraph(b.Build())
	if err != nil {
		return design{}, fmt.Errorf("encoding %s: %w", b.Name, err)
	}
	want := b.Want()
	regs := make([]string, 0, len(want))
	for r := range want {
		regs = append(regs, r)
	}
	sort.Strings(regs)
	return design{Name: b.Name, Doc: doc, Regs: regs,
		want: func() (map[string]float64, error) { return want, nil }}, nil
}

func lookupDesign(name string) (design, error) {
	b, ok := bench.Lookup(name)
	if !ok {
		return design{}, fmt.Errorf("registry has no %s", name)
	}
	return registryDesign(b)
}

func genDesign(seed int64) (design, *cdfg.Graph, error) {
	spec := gen.New(seed, gen.DefaultConfig())
	g, err := spec.Build()
	if err != nil {
		return design{}, nil, fmt.Errorf("gen seed %d: %w", seed, err)
	}
	doc, err := codec.EncodeGraph(g)
	if err != nil {
		return design{}, nil, fmt.Errorf("encoding gen seed %d: %w", seed, err)
	}
	return design{Name: fmt.Sprintf("gen-%d", seed), Doc: doc, Regs: spec.Regs(), want: spec.Reference}, g, nil
}

// extractorRejects reports whether the AFSM extractor refuses g as an
// unsupported topology. Any other pipeline failure is not a rejection.
func extractorRejects(g *cdfg.Graph) bool {
	opt := serviceOptions(1)
	work := g.Clone()
	plan, _, exOpt, err := core.GTPhase(work, opt)
	if err != nil {
		return false
	}
	_, err = core.ExtractPhase(work, plan, exOpt)
	return err != nil && (strings.Contains(err.Error(), "unsupported topology") ||
		strings.Contains(err.Error(), "primer events"))
}

// corpus is a workload's input documents.
type corpus struct {
	Designs []design
	// Drawn counts the gen seeds considered; Rejected those the extractor
	// refused; Failing those left out as known synthesis failures.
	Drawn, Rejected int
	Failing         []design
}

func knownFailure(seed int64) bool {
	for _, s := range knownFailures {
		if s == seed {
			return true
		}
	}
	return false
}

func knownSimDefect(name string) bool {
	for _, s := range knownSimDefects {
		if s == name {
			return true
		}
	}
	return false
}

// drawGen goes through the gen pool in an order drawn from seed and sorts
// every design into the corpus, the rejected count or the known failures.
func drawGen(seed int64) (corpus, error) {
	var c corpus
	for _, i := range rand.New(rand.NewSource(seed)).Perm(genPool) {
		s := int64(i + 1)
		d, g, err := genDesign(s)
		if err != nil {
			return c, err
		}
		c.Drawn++
		switch {
		case extractorRejects(g):
			c.Rejected++
		case knownFailure(s):
			c.Failing = append(c.Failing, d)
		default:
			c.Designs = append(c.Designs, d)
		}
	}
	return c, nil
}

// registryCorpus returns the registry designs in bench.All order.
func registryCorpus() ([]design, error) {
	var out []design
	for _, b := range bench.All() {
		d, err := registryDesign(b)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// coldCorpus is the cold-compile input: the registry designs, then every
// usable gen design of the pool in seeded order. It also returns how many
// designs are registry designs.
func coldCorpus(seed int64) (corpus, int, error) {
	reg, err := registryCorpus()
	if err != nil {
		return corpus{}, 0, err
	}
	c, err := drawGen(seed)
	if err != nil {
		return corpus{}, 0, err
	}
	c.Designs = append(reg, c.Designs...)
	return c, len(reg), nil
}

// editClientDesigns returns the designs of n edit-loop clients: the
// editDesigns with at least minEditNodes editable nodes, then usable gen
// designs that have as many, in seeded pool order.
func editClientDesigns(seed int64, n int) ([]design, error) {
	var out []design
	for _, name := range editDesigns {
		if len(out) == n {
			return out, nil
		}
		d, err := lookupDesign(name)
		if err != nil {
			return nil, err
		}
		g, err := codec.DecodeGraph(d.Doc)
		if err != nil {
			return nil, err
		}
		if len(editable(g)) >= minEditNodes {
			out = append(out, d)
		}
	}
	for _, k := range rand.New(rand.NewSource(seed)).Perm(genPool) {
		if len(out) == n {
			return out, nil
		}
		s := int64(k + 1)
		if knownFailure(s) {
			continue
		}
		d, g, err := genDesign(s)
		if err != nil {
			return nil, err
		}
		if len(editable(g)) >= minEditNodes && !extractorRejects(g) {
			out = append(out, d)
		}
	}
	if len(out) < n {
		return nil, fmt.Errorf("only %d editable designs for %d clients", len(out), n)
	}
	return out, nil
}

// searchCorpus returns the search workload's designs in an order drawn
// from seed.
func searchCorpus(seed int64) ([]design, error) {
	var out []design
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(searchDesigns)) {
		d, err := lookupDesign(searchDesigns[i])
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// edit is one step of an edit chain: the delta document a client PATCHes
// onto its previous job, and the state of the design it produces.
type edit struct {
	Delta []byte
	// State spells the current operator of every chain node; equal states
	// are equal designs.
	State string
}

// controlRegs returns the registers the loop and if conditions of g
// depend on, directly or through the statements that compute them.
func controlRegs(g *cdfg.Graph) map[string]bool {
	ctl := map[string]bool{}
	for _, n := range g.Nodes() {
		if (n.Kind == cdfg.KindLoop || n.Kind == cdfg.KindIf) && n.Cond != "" {
			ctl[n.Cond] = true
		}
	}
	for grew := true; grew; {
		grew = false
		for _, n := range g.Nodes() {
			for _, s := range n.Stmts {
				if !ctl[s.Dst] {
					continue
				}
				for _, r := range s.Reads() {
					if r != "" && !ctl[r] {
						ctl[r] = true
						grew = true
					}
				}
			}
		}
	}
	return ctl
}

// editable lists, in node-ID order, the nodes an edit chain may flip
// between add and sub: FU-bound single-statement add/sub nodes whose
// destination no condition depends on. Flipping one keeps the shape of
// the graph (a single-FU edit) and its control flow, so every edited
// design still terminates and the interpreter stays a valid reference.
func editable(g *cdfg.Graph) []*cdfg.Node {
	ctl := controlRegs(g)
	var out []*cdfg.Node
	for _, n := range g.Nodes() {
		if n.Kind == cdfg.KindOp && n.FU != "" && len(n.Stmts) == 1 &&
			(n.Stmts[0].Op == cdfg.OpAdd || n.Stmts[0].Op == cdfg.OpSub) && !ctl[n.Stmts[0].Dst] {
			out = append(out, n)
		}
	}
	return out
}

// editChain derives the single-FU add<->sub retype deltas of base's edit
// chain. The chain's nodes are the first maxEditNodes editable nodes of
// base (k of them); it walks a reflected Gray code over their operators,
// edit i flipping the node the trailing zeros of i index in an order
// drawn from seed, so each of the 2^k-1 edits produces a design not seen
// before. A state spells the operators of the chain's nodes in node-ID
// order, the same for every seed. editChain also returns base's state.
func editChain(base design, seed int64) (string, []edit, error) {
	g, err := codec.DecodeGraph(base.Doc)
	if err != nil {
		return "", nil, fmt.Errorf("%s: %w", base.Name, err)
	}
	nodes := editable(g)
	if len(nodes) == 0 {
		return "", nil, fmt.Errorf("%s has no editable add/sub node", base.Name)
	}
	if len(nodes) > maxEditNodes {
		nodes = nodes[:maxEditNodes]
	}
	order := rand.New(rand.NewSource(seed)).Perm(len(nodes))
	ops := make([]byte, len(nodes))
	for i, nd := range nodes {
		ops[i] = opChar(nd.Stmts[0].Op)
	}
	start := string(ops)
	n := 1<<len(nodes) - 1
	out := make([]edit, 0, n)
	for i := 1; i <= n; i++ {
		k := order[bits.TrailingZeros(uint(i))]
		if ops[k] == '+' {
			ops[k] = '-'
		} else {
			ops[k] = '+'
		}
		s := nodes[k].Stmts[0]
		id := int(nodes[k].ID)
		delta, err := json.Marshal(&codec.DeltaDoc{
			Version: codec.Version,
			Kind:    codec.KindDelta,
			Ops: []codec.DeltaOp{{
				Op:    codec.OpRetypeNode,
				ID:    &id,
				Stmts: []codec.StmtDoc{{Dst: s.Dst, Op: string(ops[k]), Src1: s.Src1, Src2: s.Src2}},
			}},
		})
		if err != nil {
			return "", nil, err
		}
		out = append(out, edit{Delta: delta, State: string(ops)})
	}
	return start, out, nil
}

func opChar(op cdfg.Op) byte {
	if op == cdfg.OpSub {
		return '-'
	}
	return '+'
}

// chainDesigns replays a chain over its base and returns the design of
// every distinct state it visits, base's own start state included, keyed
// by state.
func chainDesigns(base design, start string, chain []edit) (map[string]design, error) {
	g, err := codec.DecodeGraph(base.Doc)
	if err != nil {
		return nil, err
	}
	out := map[string]design{start: base}
	for i, e := range chain {
		d, err := codec.DecodeDelta(e.Delta)
		if err != nil {
			return nil, err
		}
		if g, err = codec.ApplyDelta(g, d); err != nil {
			return nil, fmt.Errorf("%s edit %d: %w", base.Name, i+1, err)
		}
		if _, seen := out[e.State]; seen {
			continue
		}
		doc, err := codec.EncodeGraph(g)
		if err != nil {
			return nil, err
		}
		edited, regs := g, base.Regs
		out[e.State] = design{
			Name: fmt.Sprintf("%s[%s]", base.Name, e.State),
			Doc:  doc,
			Regs: regs,
			want: func() (map[string]float64, error) { return interpret(edited, regs) },
		}
	}
	return out, nil
}
