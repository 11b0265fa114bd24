package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/cdfg"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/memo"
	"repro/internal/search"
	"repro/internal/synth"
)

// delaySeeds are the fixed random-delay assignments every compiled design
// is gate-simulated under.
var delaySeeds = []int64{0, 1, 2}

// synthesis is one pipeline outcome: what gate simulation needs plus the
// encoded document.
type synthesis struct {
	s       *core.Synthesis
	results map[string]*synth.Result
	doc     []byte
}

// directRun is the reference path for a served document: the graph
// decoded from the same input document, core.RunCtx and
// SynthesizeLogicCtx with the given options (no stage engine, and none of
// the service's caches), and codec.EncodeSynthesis.
func directRun(ctx context.Context, doc []byte, opt core.Options) (synthesis, error) {
	g, err := codec.DecodeGraph(doc)
	if err != nil {
		return synthesis{}, err
	}
	s, err := core.RunCtx(ctx, g, opt)
	if err != nil {
		return synthesis{}, err
	}
	results, err := s.SynthesizeLogicCtx(ctx)
	if err != nil {
		return synthesis{}, err
	}
	out, err := codec.EncodeSynthesis(s, results)
	return synthesis{s: s, results: results, doc: out}, err
}

// directSearch is the reference path for a served search document: a
// rewrite search with the service profile over a fresh memo cache, then
// the winning plan realized through the direct pipeline. It also returns
// the winner's cost.
func directSearch(ctx context.Context, doc []byte, workers int) (synthesis, float64, error) {
	g, err := codec.DecodeGraph(doc)
	if err != nil {
		return synthesis{}, 0, err
	}
	cache, err := memo.New("")
	if err != nil {
		return synthesis{}, 0, err
	}
	res, err := search.RunCtx(ctx, g, searchOptions(workers, cache))
	if err != nil {
		return synthesis{}, 0, err
	}
	out, err := directRun(ctx, doc, res.Best.Plan.CoreOptions(workers, cache, 0))
	return out, res.Best.Score.Cost, err
}

// searchOptions is the service's search profile (service.Config zero
// values: 1 wave, beam 2, 16 evaluations) with gate-level scoring.
func searchOptions(workers int, min synth.Minimizer) search.Options {
	return search.Options{Workers: workers, Waves: 1, Beam: 2, Budget: 16, Synthesize: true, Minimizer: min}
}

// gateCheck simulates the synthesized logic as gates under every delay
// seed and compares the named registers with the design's reference.
func gateCheck(out synthesis, d design) error {
	want, err := d.want()
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	for _, seed := range delaySeeds {
		res, err := out.s.GateSimulate(out.results, seed)
		if err != nil {
			return fmt.Errorf("delay seed %d: %w", seed, err)
		}
		if len(res.Violations) > 0 {
			return fmt.Errorf("delay seed %d: %d violations, first %s", seed, len(res.Violations), res.Violations[0])
		}
		for _, r := range d.Regs {
			if got, w := res.Regs[r], want[r]; math.Abs(got-w) > 1e-9*math.Max(1, math.Abs(w)) {
				return fmt.Errorf("delay seed %d: register %s = %v, want %v", seed, r, got, w)
			}
		}
	}
	return nil
}

// interpret is the frontend's sequential interpreter restricted to regs.
func interpret(g *cdfg.Graph, regs []string) (map[string]float64, error) {
	all, err := frontend.Interpret(g.Clone())
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(regs))
	for _, r := range regs {
		out[r] = all[r]
	}
	return out, nil
}

// verdict is the check outcome for the served results of one input.
type verdict struct {
	Mismatch   bool
	SimFailure error
}

// judge compares every served outcome of one input with the reference
// outcome. A failed job matches a reference that fails too; documents
// must be byte-identical. Gate simulation runs on the reference
// synthesis when there is one.
func judge(d design, served []served, ref synthesis, refErr error) verdict {
	var v verdict
	for _, s := range served {
		switch {
		case s.Err != nil || refErr != nil:
			if (s.Err == nil) != (refErr == nil) {
				v.Mismatch = true
			}
		case !bytes.Equal(s.Doc, ref.doc):
			v.Mismatch = true
		}
	}
	if refErr == nil {
		v.SimFailure = gateCheck(ref, d)
	}
	return v
}

// checkResult is the outcome of the output checks of one run.
type checkResult struct {
	Checked     int
	Mismatches  int
	SimFailures int
	// SimUnknown counts the simulation failures outside knownSimDefects.
	SimUnknown int
	// SimFailed and Inconsistent describe the failing designs.
	SimFailed    []string
	Inconsistent []string
}

func (c *checkResult) record(name string, v verdict) {
	c.Checked++
	if v.Mismatch {
		c.Mismatches++
		c.Inconsistent = append(c.Inconsistent, name)
	}
	if v.SimFailure != nil {
		c.SimFailures++
		tag := "known defect"
		if !knownSimDefect(name) {
			c.SimUnknown++
			tag = "not a known defect"
		}
		c.SimFailed = append(c.SimFailed, fmt.Sprintf("%s (%s): %v", name, tag, v.SimFailure))
	}
}

// checkDesigns runs the direct reference for every design and judges the
// service's outcomes for the input key each maps to. The direct runs
// share one minimization cache of their own, fresh for the check pass and
// never the service's: memoized minimization is bit-identical to
// minimizing, and the edit-loop's variants repeat most problems. They run
// workers at a time at one worker each, which keeps every CPU busy; the
// output is the same at every worker count.
func checkDesigns(ctx context.Context, designs map[string]design, out *outcomes, workers int) (checkResult, error) {
	cache, err := memo.New("")
	if err != nil {
		return checkResult{}, err
	}
	opt := serviceOptions(1)
	opt.Minimizer = cache
	keys := make([]string, 0, len(designs))
	for k := range designs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	verdicts := inParallel(workers, len(keys), func(i int) verdict {
		d := designs[keys[i]]
		ref, err := directRun(ctx, d.Doc, opt)
		return judge(d, out.byInput[keys[i]], ref, err)
	})
	var c checkResult
	for i, k := range keys {
		c.record(designs[k].Name, verdicts[i])
	}
	return c, nil
}

// inParallel calls f(0..n-1) from workers goroutines and returns the
// results in index order.
func inParallel[T any](workers, n int, f func(int) T) []T {
	out := make([]T, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}
