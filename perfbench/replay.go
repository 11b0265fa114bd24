package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/cdfg"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/local"
	"repro/internal/memo"
	"repro/internal/search"
	"repro/internal/stage"
	"repro/internal/synth"
)

// replay drives a workload's inputs through the layers' public calls at
// one worker, with a span around each call when its tracer is set:
//
//   - cold-compile: codec.DecodeGraph, then the core phase seams in
//     order (GTPhase, ExtractPhase, LTPhase and SynthPhase per
//     controller), then codec.EncodeSynthesis;
//   - edit-loop: one stage.Engine over the clients' edit chains, each
//     edit being codec.DecodeDelta + codec.ApplyDelta, Engine.Run and
//     codec.EncodeSynthesis;
//   - search: codec.DecodeGraph, search.RunCtx, the winner realized
//     through the core phase seams, codec.EncodeSynthesis.
//
// Every minimization goes through the hfmin seam (a minimizer around a
// fresh memo cache). Every document is compared byte for byte with the
// one the service served for the same input.
type replay struct {
	ctx context.Context
	tr  *tracer
	min *minimizer
	out *outcomes // what the service served

	Ops        int
	Wall       time.Duration // summed over the ops
	Mismatches []string

	// Sizes of what was produced, summed over the ops.
	Channels, States, Transitions, DocBytes int
	// Search counters summed over the search ops, and the winners' cost.
	Evals, DupStates, Pruned int
	SearchCost               float64
	// Attempts counts encoding-ladder attempts (obs synth/attempts) and
	// Synths the controller syntheses (SynthesizeRung calls) they served.
	Attempts, Synths int64

	// The edit-loop replay's stage engine and current designs, one per
	// client.
	eng    *stage.Engine
	graphs []*cdfg.Graph
}

func newReplay(ctx context.Context, tr *tracer, out *outcomes) (*replay, error) {
	min, err := newMinimizer(tr)
	if err != nil {
		return nil, err
	}
	return &replay{ctx: ctx, tr: tr, min: min, out: out}, nil
}

// options are the service job options at one worker through the seam.
func (r *replay) options() core.Options {
	opt := serviceOptions(1)
	opt.Minimizer = r.min
	return opt
}

// finish encodes one op's synthesis, compares it with the served
// document of input and closes the op.
func (r *replay) finish(input string, s *core.Synthesis, results map[string]*synth.Result) error {
	var doc []byte
	err := r.tr.call("codec.encode", func() (err error) {
		doc, err = codec.EncodeSynthesis(s, results)
		return err
	})
	r.tr.pop(err != nil)
	if err != nil {
		return fmt.Errorf("%s: %w", input, err)
	}
	r.Ops++
	r.DocBytes += len(doc)
	r.Channels += s.Channels()
	for _, sc := range s.StateCounts() {
		r.States += sc[0]
		r.Transitions += sc[1]
	}
	if !bytes.Equal(doc, r.out.first(input)) {
		r.Mismatches = append(r.Mismatches, input)
	}
	return nil
}

// decode is the codec.decode seam.
func (r *replay) decode(doc []byte) (*cdfg.Graph, error) {
	var g *cdfg.Graph
	err := r.tr.call("codec.decode", func() (err error) {
		g, err = codec.DecodeGraph(doc)
		return err
	})
	return g, err
}

// phases runs g (mutated) through the core phase seams in the order
// core.RunCtx and Synthesis.SynthesizeLogicCtx do at one worker.
func (r *replay) phases(g *cdfg.Graph, opt core.Options) (*core.Synthesis, map[string]*synth.Result, error) {
	opt = opt.Normalized()
	s := &core.Synthesis{
		Level:       opt.Level,
		Graph:       g,
		Shared:      map[string]map[string][]string{},
		LTReports:   map[string]*local.Report{},
		Parallelism: opt.Parallelism,
		Minimizer:   opt.Minimizer,
		Solver:      opt.Solver,
		Encodings:   opt.Encodings,
	}
	var exOpt extract.Options
	err := r.tr.call("transform", func() (err error) {
		s.Plan, s.GTReports, exOpt, err = core.GTPhase(g, opt)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	err = r.tr.call("extract", func() error {
		res, err := core.ExtractPhase(g, s.Plan, exOpt)
		if err == nil {
			s.Machines, s.Wires, s.Primers = res.Machines, res.Wires, res.Primers
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	fus := s.FUs()
	if opt.Level == core.OptimizedGTLT {
		for _, fu := range fus {
			err := r.tr.call("local", func() error {
				rep, err := core.LTPhase(s.Machines[fu], core.LTConfigFor(opt, fu), fu)
				if err == nil {
					s.LTReports[fu] = rep
					s.Shared[fu] = rep.SharedWires
				}
				return err
			})
			if err != nil {
				return nil, nil, err
			}
		}
	}
	results := map[string]*synth.Result{}
	for _, fu := range fus {
		err := r.tr.call("synth", func() error {
			res, err := core.SynthPhase(r.ctx, s.Machines[fu], opt.Parallelism, opt.Minimizer, opt.Solver, core.RungFor(opt.Encodings, fu), fu)
			results[fu] = res
			return err
		})
		if err != nil {
			return nil, nil, err
		}
	}
	return s, results, nil
}

// cold replays one cold-compile op.
func (r *replay) cold(trace int, d design) error {
	r.tr.op(trace)
	g, err := r.decode(d.Doc)
	if err == nil {
		var s *core.Synthesis
		var results map[string]*synth.Result
		if s, results, err = r.phases(g, r.options()); err == nil {
			return r.finish(d.Name, s, results)
		}
	}
	r.tr.pop(true)
	return fmt.Errorf("%s: %w", d.Name, err)
}

// search replays one search op.
func (r *replay) search(trace int, d design) error {
	r.tr.op(trace)
	g, err := r.decode(d.Doc)
	if err != nil {
		r.tr.pop(true)
		return err
	}
	var res *search.Result
	err = r.tr.call("search", func() (err error) {
		res, err = search.RunCtx(r.ctx, g, searchOptions(1, r.min))
		return err
	})
	if err != nil {
		r.tr.pop(true)
		return fmt.Errorf("%s: %w", d.Name, err)
	}
	r.Evals += res.Expanded
	r.DupStates += res.CacheHits
	r.Pruned += res.Pruned
	r.SearchCost += res.Best.Score.Cost
	s, results, err := r.phases(g.Clone(), res.Best.Plan.CoreOptions(1, r.min, 0))
	if err != nil {
		r.tr.pop(true)
		return fmt.Errorf("%s winner: %w", d.Name, err)
	}
	return r.finish(d.Name, s, results)
}

// warmEdit compiles the edit-loop clients' unedited designs through a
// fresh stage engine and minimization cache, untraced, as a session's
// warm-up did on its fresh server.
func (r *replay) warmEdit(w *editWorkload) error {
	r.eng = stage.New(nil)
	cache, err := memo.New("")
	if err != nil {
		return err
	}
	r.min.cache = cache
	tr := r.tr
	r.tr, r.min.tr = nil, nil
	defer func() { r.tr, r.min.tr = tr, tr }()
	r.graphs = make([]*cdfg.Graph, len(w.bases))
	for i, base := range w.bases {
		g, err := codec.DecodeGraph(base.Doc)
		if err != nil {
			return err
		}
		s, results, err := r.eng.Run(r.ctx, g, r.options())
		if err != nil {
			return fmt.Errorf("%s: %w", base.Name, err)
		}
		doc, err := codec.EncodeSynthesis(s, results)
		if err != nil {
			return err
		}
		if !bytes.Equal(doc, r.out.first(editKey(i, w.starts[i]))) {
			r.Mismatches = append(r.Mismatches, editKey(i, w.starts[i]))
		}
		r.graphs[i] = g
	}
	return nil
}

// edit replays client i's next edit e through the replay's stage engine.
func (r *replay) edit(trace, i int, e edit) error {
	r.tr.op(trace)
	err := r.tr.call("codec.delta", func() error {
		d, err := codec.DecodeDelta(e.Delta)
		if err == nil {
			r.graphs[i], err = codec.ApplyDelta(r.graphs[i], d)
		}
		return err
	})
	var s *core.Synthesis
	var results map[string]*synth.Result
	if err == nil {
		err = r.tr.call("stage", func() (err error) {
			s, results, err = r.eng.Run(r.ctx, r.graphs[i], r.options())
			return err
		})
	}
	if err != nil {
		r.tr.pop(true)
		return fmt.Errorf("%s: %w", editKey(i, e.State), err)
	}
	return r.finish(editKey(i, e.State), s, results)
}

// step is one op of a replay, or untimed set-up before some ops.
type step struct {
	run   func(*replay) error
	timed bool
}

// replaySteps returns the ops of workload w as replay steps, in order.
// The edit-loop replays each session's edits through an engine of its
// own, after an untimed warm-up like the session's.
func replaySteps(w workload) []step {
	var steps []step
	op := func(f func(*replay, int) error) {
		trace := len(steps) + 1
		steps = append(steps, step{run: func(r *replay) error { return f(r, trace) }, timed: true})
	}
	switch w := w.(type) {
	case *coldWorkload:
		for _, d := range w.posted() {
			op(func(r *replay, trace int) error { return r.cold(trace, d) })
		}
	case *editWorkload:
		for _, ses := range w.sessions {
			steps = append(steps, step{run: func(r *replay) error { return r.warmEdit(w) }})
			for i := range w.bases {
				for _, e := range ses.played(i) {
					op(func(r *replay, trace int) error { return r.edit(trace, i, e) })
				}
			}
		}
	case *searchWorkload:
		for _, d := range w.posted() {
			op(func(r *replay, trace int) error { return r.search(trace, d) })
		}
	}
	return steps
}

// replayBoth replays workload w untraced (plain) and traced, alternating
// step by step so that both passes run each op under the same conditions
// (heap, caches, clock), which makes their wall times comparable. Only
// the ops are timed and counted.
func replayBoth(w workload, plain, traced *replay) error {
	for _, st := range replaySteps(w) {
		if !st.timed {
			if err := st.run(plain); err != nil {
				return err
			}
			if err := st.run(traced); err != nil {
				return err
			}
			continue
		}
		t := time.Now()
		if err := st.run(plain); err != nil {
			return err
		}
		plain.Wall += time.Since(t)
		attempts, synths := counter("synth/attempts"), stageCount("synth")
		t = time.Now()
		if err := st.run(traced); err != nil {
			return err
		}
		traced.Wall += time.Since(t)
		traced.Attempts += counter("synth/attempts") - attempts
		traced.Synths += stageCount("synth") - synths
	}
	return nil
}
