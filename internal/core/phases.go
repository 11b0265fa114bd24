package core

import (
	"context"
	"fmt"

	"repro/internal/bm"
	"repro/internal/cdfg"
	"repro/internal/extract"
	"repro/internal/local"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/synth"
	"repro/internal/timing"
	"repro/internal/transform"
)

// The pipeline's stages as explicit, individually callable seams. RunCtx
// composes them into the monolithic flow; the incremental engine
// (internal/stage) calls them one at a time, wrapping each in a
// content-addressed cache lookup so unchanged stages are skipped. Both
// entry points MUST agree on behavior — every defaulting rule, error
// wrap and obs span lives in exactly one seam below, never duplicated in
// a composer.

// Normalized returns the options with every implicit default resolved —
// currently the timing model (a zero model selects
// timing.DefaultModel()). RunCtx applies it on entry; cache-key builders
// must apply it too, so the defaulted and explicit spellings of the same
// configuration share keys.
func (o Options) Normalized() Options {
	if o.Timing.DefaultOp.Max == 0 && len(o.Timing.FUOp) == 0 {
		o.Timing = timing.DefaultModel()
	}
	return o
}

// GTOptions resolves the transform options the global-transform phase
// actually runs with: a zero-valued Transform (Unroll == 0) selects the
// defaults while preserving the per-GT skip toggles, and the run's
// timing model always wins over one smuggled in via Transform.Timing.
func GTOptions(opt Options) transform.Options {
	topt := opt.Transform
	if topt.Unroll == 0 {
		topt = transform.DefaultOptions()
		topt.SkipGT1 = opt.Transform.SkipGT1
		topt.SkipGT2 = opt.Transform.SkipGT2
		topt.SkipGT3 = opt.Transform.SkipGT3
		topt.SkipGT4 = opt.Transform.SkipGT4
		topt.SkipGT5 = opt.Transform.SkipGT5
	}
	topt.Timing = opt.Timing
	return topt
}

// GTPhase runs the global-transform stage on g (mutating it): the full
// GT1–GT5 cascade at the optimized levels, or a bare channel build (with
// separate-wait extraction) at Unoptimized. It returns the channel plan,
// the per-GT reports (nil at Unoptimized) and the extraction options the
// next stage must use. opt must already be Normalized.
func GTPhase(g *cdfg.Graph, opt Options) (*transform.Plan, []*transform.Report, extract.Options, error) {
	exOpt := extract.Options{}
	if opt.Level == Unoptimized {
		exOpt.SeparateWaits = true
		return transform.BuildChannels(g), nil, exOpt, nil
	}
	plan, reports, err := transform.OptimizeGT(g, GTOptions(opt))
	if err != nil {
		return nil, nil, exOpt, fmt.Errorf("core: global transforms: %w", err)
	}
	return plan, reports, exOpt, nil
}

// ExtractPhase runs AFSM extraction over the transformed graph under the
// "extract" span, publishing the per-controller size gauges.
func ExtractPhase(g *cdfg.Graph, plan *transform.Plan, exOpt extract.Options) (*extract.Result, error) {
	exSp := obs.Start("extract", "")
	res, err := extract.Extract(g, plan, exOpt)
	exSp.EndErr(err)
	if err != nil {
		return nil, fmt.Errorf("core: extraction: %w", err)
	}
	obs.Add("extract/machines", int64(len(res.Machines)))
	for fu, m := range res.Machines {
		obs.Set("extract/"+fu+"/states", int64(m.NumStates()))
		obs.Set("extract/"+fu+"/inputs", int64(len(m.Inputs)))
	}
	return res, nil
}

// LTConfigFor resolves the local-transform configuration for one
// controller: the caller's per-FU override, or the full pipeline.
func LTConfigFor(opt Options, fu string) local.Config {
	if cfg, ok := opt.LTConfigs[fu]; ok {
		return cfg
	}
	return local.FullConfig()
}

// LTPhase runs the local transforms on one controller (mutating m in
// place) with core's error attribution.
func LTPhase(m *bm.Machine, cfg local.Config, fu string) (*local.Report, error) {
	rep, err := local.OptimizeWith(m, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: local transforms on %s: %w", fu, err)
	}
	return rep, nil
}

// RungFor resolves the encoding-ladder rung for one controller: the
// caller's pinned rung, or -1 (try the whole ladder).
func RungFor(encodings map[string]int, fu string) int {
	if rung, ok := encodings[fu]; ok {
		return rung
	}
	return -1
}

// SynthPhase runs gate-level synthesis for one controller with core's
// error attribution. It takes the machine directly (not a *Synthesis) so
// concurrent per-controller callers need no shared state. solver is
// logic.SolverBB (the zero value) or logic.SolverGreedy, the only values.
func SynthPhase(ctx context.Context, m *bm.Machine, workers int, min synth.Minimizer, solver logic.Solver, rung int, fu string) (*synth.Result, error) {
	r, err := synth.SynthesizeRung(ctx, m, workers, min, solver, rung)
	if err != nil {
		return nil, fmt.Errorf("core: synthesis of %s: %w", fu, err)
	}
	return r, nil
}
