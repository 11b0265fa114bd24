package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/obs"
)

// perLayerNames are the per-layer metrics a traced run reports in its
// JSON line (BENCHMARK.json's per_layer list): the ones measured on every
// workload. Layer times are self times in ms per replayed op; counts are
// per op where the op mix varies with speed, totals otherwise.
var perLayerNames = []string{
	"service.submit_ms", "service.result_ms", "service.dedup_hits",
	"codec.encode_ms", "codec.doc_kb",
	"transform.channels", "local.states", "local.transitions",
	"synth.attempts", "synth.wasted_attempts",
	"hfmin.calls", "hfmin.ms", "hfmin.infeasible", "hfmin.infeasible_ms", "hfmin.primes_ms", "hfmin.primes",
	"logic.cover_ms",
	"memo.hits", "memo.misses", "memo.dedup_waits", "memo.hit_ratio",
	"stage.hits", "stage.misses", "stage.synth_misses", "stage.hit_ratio",
	"search.evals", "search.dup_states", "search.pruned",
	"other.ms", "trace.wall_ms", "trace.overhead",
}

// replayLayers are the span names of the replay's layer seams, in report
// order. Each workload's replay crosses some of them.
var replayLayers = []string{
	"codec.decode", "codec.delta", "transform", "extract", "local", "synth",
	"stage", "search", "hfmin", "codec.encode",
}

// parSubset is how many corpus designs the par.speedup passes compile.
const parSubset = 20

// tracedRun replays a workload's inputs through the layers with spans and
// reports the per-layer metrics. It runs, in order: the workload's own
// pass through the service with spans around every service call; the
// layer replay, untraced and traced op by op; the prime and covering
// replays of the distinct minimization problems; for cold-compile, the
// two par.speedup passes. The spans are written to outDir.
func tracedRun(ctx context.Context, name string, seed int64, nproc int, seconds float64, outDir string) (result, []string, error) {
	w, err := newWorkload(name, seed, nproc)
	if err != nil {
		return result{}, nil, err
	}
	defer closeAll(w)
	svc := newTracer()
	traceServers(w, svc)
	win, out, err := w.window(seconds)
	if err != nil {
		return result{}, nil, err
	}
	traceServers(w, nil)
	caches := win.Caches
	failed := 0
	for _, o := range win.Ops {
		if o.Err != nil {
			failed++
		}
	}

	plain, err := newReplay(ctx, nil, out)
	if err != nil {
		return result{}, nil, err
	}
	tr := newTracer()
	rp, err := newReplay(ctx, tr, out)
	if err != nil {
		return result{}, nil, err
	}
	if err := replayBoth(w, plain, rp); err != nil {
		return result{}, nil, err
	}
	primes := rp.min.replayPrimes()

	lines := []string{fmt.Sprintf("traced pass: %d ops replayed at -j 1, %d served ops", rp.Ops, len(win.Ops))}
	speedup := 0.0
	if cw, ok := w.(*coldWorkload); ok {
		if speedup, err = parSpeedup(cw, nproc); err != nil {
			return result{}, nil, err
		}
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
	if err := writeSpans(path, svc, tr); err != nil {
		return result{}, nil, err
	}
	lines = append(lines, "spans written to "+path)

	ops := float64(rp.Ops)
	perOp := func(d time.Duration) float64 { return ms(d) / ops }
	self := selfTimes(tr.spans)
	wall := rp.Wall
	var layered time.Duration
	lines = append(lines, fmt.Sprintf("%-14s %12s %10s %7s", "layer", "self_ms", "ms/op", "share"))
	for _, l := range replayLayers {
		if d, ok := self[l]; ok {
			layered += d
			lines = append(lines, fmt.Sprintf("%-14s %12.3f %10.4f %6.2f%%", l, ms(d), perOp(d), 100*float64(d)/float64(wall)))
		}
	}
	other := wall - layered
	lines = append(lines,
		fmt.Sprintf("%-14s %12.3f %10.4f %6.2f%%", "other", ms(other), perOp(other), 100*float64(other)/float64(wall)),
		fmt.Sprintf("%-14s %12.3f %10.4f %6.2f%%  (layer self times + other)", "traced wall", ms(wall), perOp(wall), 100.0),
		fmt.Sprintf("tracing overhead: traced wall %.3f s, untraced replay %.3f s, ratio %.4f",
			wall.Seconds(), plain.Wall.Seconds(), wall.Seconds()/plain.Wall.Seconds()))

	var hfCalls, hfFailed int
	var hfFailedTime time.Duration
	for _, s := range tr.spans {
		if s.Name == "hfmin" {
			hfCalls++
			if s.Failed {
				hfFailed++
				hfFailedTime += s.dur()
			}
		}
	}
	submit, resultMS := meanSpan(svc.spans, "service.submit"), meanSpan(svc.spans, "service.result")
	m := map[string]metric{
		"service.submit_ms":     {submit, "ms"},
		"service.result_ms":     {resultMS, "ms"},
		"service.dedup_hits":    {float64(caches.Dedup), "count"},
		"codec.encode_ms":       {perOp(self["codec.encode"]), "ms"},
		"codec.doc_kb":          {float64(rp.DocBytes) / 1000 / ops, "KB"},
		"transform.channels":    {float64(rp.Channels) / ops, "count"},
		"local.states":          {float64(rp.States) / ops, "count"},
		"local.transitions":     {float64(rp.Transitions) / ops, "count"},
		"synth.attempts":        {float64(rp.Attempts) / ops, "count"},
		"synth.wasted_attempts": {float64(rp.Attempts-rp.Synths) / ops, "count"},
		"hfmin.calls":           {float64(hfCalls) / ops, "count"},
		"hfmin.ms":              {perOp(self["hfmin"]), "ms"},
		"hfmin.infeasible":      {float64(hfFailed) / ops, "count"},
		"hfmin.infeasible_ms":   {perOp(hfFailedTime), "ms"},
		"hfmin.primes_ms":       {primes.PrimesMS / ops, "ms"},
		"hfmin.primes":          {float64(primes.Primes), "count"},
		"logic.cover_ms":        {primes.CoverMS / ops, "ms"},
		"memo.hits":             {float64(caches.Memo.Hits), "count"},
		"memo.misses":           {float64(caches.Memo.Misses), "count"},
		"memo.dedup_waits":      {float64(caches.Memo.DedupWaits), "count"},
		"memo.hit_ratio":        {ratio(caches.Memo.Hits, caches.Memo.Misses), "ratio"},
		"stage.hits":            {float64(caches.Stage.Hits()), "count"},
		"stage.misses":          {float64(caches.Stage.Misses()), "count"},
		"stage.synth_misses":    {float64(caches.Stage.SynthMisses), "count"},
		"stage.hit_ratio":       {ratio(caches.Stage.Hits(), caches.Stage.Misses()), "ratio"},
		"search.evals":          {float64(rp.Evals), "count"},
		"search.dup_states":     {float64(rp.DupStates), "count"},
		"search.pruned":         {float64(rp.Pruned), "count"},
		"other.ms":              {perOp(other), "ms"},
		"trace.wall_ms":         {perOp(wall), "ms"},
		"trace.overhead":        {wall.Seconds() / plain.Wall.Seconds(), "ratio"},
	}
	// Layer figures of one workload only: report lines, not JSON.
	only := map[string]metric{}
	for _, l := range []string{"transform", "extract", "local", "synth", "stage"} {
		if d, ok := self[l]; ok {
			only[l+".ms"] = metric{perOp(d), "ms"}
		}
	}
	for _, l := range []string{"codec.decode", "codec.delta"} {
		if d, ok := self[l]; ok {
			only[l+"_ms"] = metric{perOp(d), "ms"}
		}
	}
	if d, ok := self["search"]; ok {
		only["search.eval_ms"] = metric{perOp(d), "ms"}
		only["search_cost"] = metric{rp.SearchCost, "cost"}
	}
	if speedup > 0 {
		only["par.speedup"] = metric{speedup, "x"}
	}
	for _, k := range perLayerNames {
		lines = append(lines, fmt.Sprintf("layer_metric %-22s %14.4f %s", k, m[k].Value, m[k].Unit))
	}
	names := make([]string, 0, len(only))
	for n := range only {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		lines = append(lines, fmt.Sprintf("layer_metric %-22s %14.4f %s (%s only)", n, only[n].Value, only[n].Unit, name))
	}
	lines = append(lines, fmt.Sprintf("hfmin replay: %d distinct specs, %d primes", primes.Specs, primes.Primes))
	for _, k := range rp.Mismatches {
		lines = append(lines, "replay_mismatch "+k)
	}
	return result{Correct: len(rp.Mismatches) == 0 && failed == 0, Attempted: rp.Ops, Failed: failed, Metrics: m}, lines, nil
}

// traceServers sets the tracer of every server of w, and of any an
// edit-loop adds later.
func traceServers(w workload, tr *tracer) {
	for _, s := range w.systems() {
		s.tr = tr
	}
	if ew, ok := w.(*editWorkload); ok {
		ew.tr = tr
	}
}

// parSpeedup compiles the first parSubset corpus designs on a fresh
// server at one worker and on one at nproc workers and returns the ratio
// of their median latencies.
func parSpeedup(w *coldWorkload, nproc int) (float64, error) {
	designs := w.posted()
	if len(designs) > parSubset {
		designs = designs[:parSubset]
	}
	p50 := func(workers int) (float64, error) {
		sys, err := newSystem(1, workers)
		if err != nil {
			return 0, err
		}
		defer sys.close()
		out := newOutcomes()
		var lat []float64
		for _, d := range designs {
			o, _ := sys.do(d.Name, d.Doc, "", "", out)
			if o.Err != nil {
				return 0, fmt.Errorf("%s at -j %d: %w", d.Name, workers, o.Err)
			}
			lat = append(lat, o.Latency)
		}
		return median(lat), nil
	}
	one, err := p50(1)
	if err != nil {
		return 0, err
	}
	all, err := p50(nproc)
	if err != nil {
		return 0, err
	}
	return one / all, nil
}

// meanSpan is the mean duration in ms of the spans named name.
func meanSpan(spans []span, name string) float64 {
	var total time.Duration
	n := 0
	for _, s := range spans {
		if s.Name == name {
			total += s.dur()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return ms(total) / float64(n)
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// stageCount is how many spans named stage the process's obs registry has
// completed.
func stageCount(stage string) int64 {
	if m := obs.Gather(); m != nil {
		if st, ok := m.Stage(stage); ok {
			return st.Count
		}
	}
	return 0
}
