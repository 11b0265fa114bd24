package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sync"
	"time"

	"repro/internal/hfmin"
	"repro/internal/logic"
	"repro/internal/memo"
)

// span is one timed call the benchmark made at a layer seam.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0 for a root
	Trace  int    `json:"trace"`            // the op the call belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Failed bool   `json:"failed,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps the spans of one pass in memory. A nil tracer records
// nothing and costs a nil check per call.
//
// Spans are opened two ways: begin/end with an explicit parent and trace,
// safe from concurrent clients, and push/pop against a stack of open
// spans, for the sequential replay, whose calls nest in one goroutine
// (the hfmin seam cannot be handed a parent, so it nests under whatever
// is open).
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	stack  []int // open spans of the sequential replay, innermost last
	trace  int   // current op of the sequential replay
	traces int   // trace IDs handed out by newTrace
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// newTrace returns a fresh trace ID for an op of the service pass (0 on a
// nil tracer).
func (t *tracer) newTrace() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traces++
	return t.traces
}

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(trace, parent int, name string) int {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: start})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int, failed bool) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end
	t.spans[id-1].Failed = failed
}

// op starts op trace as the sequential replay's current root span.
func (t *tracer) op(trace int) {
	if t == nil {
		return
	}
	t.trace = trace
	t.push("op")
}

// push opens a span under the innermost open one.
func (t *tracer) push(name string) {
	if t == nil {
		return
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.stack = append(t.stack, t.begin(t.trace, parent, name))
}

// pop closes the innermost open span.
func (t *tracer) pop(failed bool) {
	if t == nil {
		return
	}
	n := len(t.stack) - 1
	t.end(t.stack[n], failed)
	t.stack = t.stack[:n]
}

// call runs f inside a span named name on the replay's stack.
func (t *tracer) call(name string, f func() error) error {
	t.push(name)
	err := f()
	t.pop(err != nil)
	return err
}

// selfTimes returns, per span name, the summed self time of its spans:
// each span's duration minus the time its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	child := make([]time.Duration, len(spans)+1)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.dur() - child[s.ID]
	}
	return out
}

// writeSpans writes the spans of the service pass and of the replay to
// path as JSON lines, one span per line, each tagged with its pass.
func writeSpans(path string, service, replay *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, p := range []struct {
		name string
		t    *tracer
	}{{"service", service}, {"replay", replay}} {
		for _, s := range p.t.spans {
			if err := enc.Encode(struct {
				Pass string `json:"pass"`
				span
			}{p.name, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// minimizer is the hfmin seam: a synth.Minimizer around a memo cache that
// puts an "hfmin" span around every minimization and, while tracing,
// keeps each distinct spec for the prime-generation and covering replays.
type minimizer struct {
	cache *memo.Cache
	tr    *tracer

	mu    sync.Mutex
	specs map[[32]byte]hfmin.Spec
	order [][32]byte
}

func newMinimizer(tr *tracer) (*minimizer, error) {
	c, err := memo.New("")
	if err != nil {
		return nil, err
	}
	return &minimizer{cache: c, tr: tr, specs: map[[32]byte]hfmin.Spec{}}, nil
}

func (m *minimizer) Minimize(spec hfmin.Spec) (hfmin.Result, error) {
	return m.MinimizeCtx(context.Background(), spec)
}

func (m *minimizer) MinimizeCtx(ctx context.Context, spec hfmin.Spec) (hfmin.Result, error) {
	m.tr.push("hfmin")
	res, err := m.cache.MinimizeCtx(ctx, spec)
	m.tr.pop(err != nil)
	if m.tr != nil {
		k := memo.Key(spec, m.cache.Solver())
		m.mu.Lock()
		if _, seen := m.specs[k]; !seen {
			m.specs[k] = spec
			m.order = append(m.order, k)
		}
		m.mu.Unlock()
	}
	return res, err
}

// Solver reports the cache's covering backend, as memo.Cache does, so the
// stage engine keys synthesis stages the same way through the wrapper.
func (m *minimizer) Solver() logic.Solver { return m.cache.Solver() }

// primeReplay is the cost of the distinct minimization problems a pass
// posed, solved again from scratch outside the pass.
type primeReplay struct {
	Specs    int
	Primes   int
	PrimesMS float64 // hfmin.Covering: analysis, dhf-prime generation, matrix
	CoverMS  float64 // CoveringProblem.SolveWith(SolverBB)
}

// replayPrimes runs every distinct spec m saw through hfmin.Covering and
// every covering problem through the branch-and-bound solver.
func (m *minimizer) replayPrimes() primeReplay {
	var r primeReplay
	for _, k := range m.order {
		t := time.Now()
		res, prob, err := hfmin.Covering(m.specs[k])
		r.PrimesMS += ms(time.Since(t))
		r.Specs++
		r.Primes += len(res.Primes)
		if err != nil || len(prob.Rows) == 0 {
			continue
		}
		t = time.Now()
		prob.SolveWith(logic.SolverBB)
		r.CoverMS += ms(time.Since(t))
	}
	return r
}
