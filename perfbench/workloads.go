package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/memo"
	"repro/internal/stage"
)

// workload is one set-up workload: its server, its inputs, and the timed
// pass that drives them through the server.
type workload interface {
	// window runs the timed pass and returns it with the served outcomes.
	window(seconds float64) (window, *outcomes, error)
	// designs maps every input key the pass served to its design.
	designs() (map[string]design, error)
	// systems are the servers the workload set up.
	systems() []*system
}

func closeAll(w workload) {
	for _, s := range w.systems() {
		s.close()
	}
}

// newWorkload sets workload name up once.
func newWorkload(name string, seed int64, nproc int) (workload, error) {
	switch name {
	case "cold-compile":
		return setupCold(seed, nproc)
	case "edit-loop":
		return setupEdit(seed, nproc)
	default:
		return setupSearch(seed, nproc)
	}
}

// setupWorkload sets a workload up repeatedly (see repeatSetup) and
// returns the last set-up and the time each took.
func setupWorkload(name string, seed int64, nproc int) (workload, []float64, error) {
	return repeatSetup(func() (workload, error) { return newWorkload(name, seed, nproc) }, closeAll)
}

// coldWorkload posts every corpus design once from one closed-loop client.
type coldWorkload struct {
	sys  *system
	c    corpus
	nreg int // the first nreg designs are the registry's
	n    int // designs posted in the window
}

func setupCold(seed int64, nproc int) (*coldWorkload, error) {
	c, nreg, err := coldCorpus(seed)
	if err != nil {
		return nil, err
	}
	sys, err := newSystem(1, nproc)
	if err != nil {
		return nil, err
	}
	return &coldWorkload{sys: sys, c: c, nreg: nreg}, nil
}

func (w *coldWorkload) systems() []*system { return []*system{w.sys} }

func (w *coldWorkload) window(seconds float64) (window, *outcomes, error) {
	out := newOutcomes()
	win := measure(func() []op {
		return postAll(w.sys, w.c.Designs, "", seconds, out)
	}, w.sys)
	w.n = len(win.Ops)
	return win, out, nil
}

// posted returns the designs the window posted.
func (w *coldWorkload) posted() []design { return w.c.Designs[:w.n] }

func (w *coldWorkload) designs() (map[string]design, error) { return byName(w.posted()), nil }

// postAll posts each design in turn from one closed-loop client until
// all are done or seconds have passed.
func postAll(sys *system, ds []design, query string, seconds float64, out *outcomes) []op {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var ops []op
	for _, d := range ds {
		if !time.Now().Before(deadline) {
			break
		}
		o, _ := sys.do(d.Name, d.Doc, query, "", out)
		ops = append(ops, o)
	}
	return ops
}

func byName(ds []design) map[string]design {
	m := map[string]design{}
	for _, d := range ds {
		m[d.Name] = d
	}
	return m
}

// knownFailing submits the known synthesis failures after the window and
// returns how many of them still fail.
func (w *coldWorkload) knownFailing() int {
	out := newOutcomes()
	failing := 0
	for _, d := range w.c.Failing {
		if o, _ := w.sys.do(d.Name, d.Doc, "", "", out); o.Err != nil {
			failing++
		}
	}
	return failing
}

// editSessions is how many times an edit-loop run plays its clients'
// chains, each time on a fresh server and in a Gray-code order of its
// own. One session is about 4 s of edits on 2 CPUs; six make the window
// long enough to average out more of the machine's own speed swings and
// of the clients' contention on the slow edits.
const editSessions = 6

// editWorkload gives every client one design and has it PATCH its edit
// chain onto its previous job, once per session.
type editWorkload struct {
	seed     int64
	nproc    int
	tr       *tracer // given to the servers of sessions added later
	bases    []design
	starts   []string  // each client's unedited state
	warm     *outcomes // the served documents, warm-ups included
	sessions []*editSession
}

// editSession is one play of the clients' chains on a server of its own,
// where every client submitted its design once before the window.
type editSession struct {
	sys     *system
	chains  [][]edit
	baseIDs []string
	done    []int // edits each client completed in the window
}

func editKey(client int, state string) string { return fmt.Sprintf("%d/%s", client, state) }

// setupEdit picks the clients' designs and sets up the first session.
func setupEdit(seed int64, nproc int) (*editWorkload, error) {
	bases, err := editClientDesigns(seed, nproc)
	if err != nil {
		return nil, err
	}
	w := &editWorkload{seed: seed, nproc: nproc, bases: bases, warm: newOutcomes()}
	return w, w.addSession()
}

// addSession derives the next session's chains, starts its server and
// submits every client's design once.
func (w *editWorkload) addSession() error {
	k := int64(len(w.sessions))
	ses := &editSession{}
	for i, base := range w.bases {
		start, chain, err := editChain(base, w.seed*7919+k*1009+int64(i))
		if err != nil {
			return err
		}
		if k == 0 {
			w.starts = append(w.starts, start)
		}
		ses.chains = append(ses.chains, chain)
	}
	sys, err := newSystem(w.nproc, w.nproc)
	if err != nil {
		return err
	}
	sys.tr = w.tr
	ses.sys = sys
	w.sessions = append(w.sessions, ses)
	for i, base := range w.bases {
		o, id := sys.do(editKey(i, w.starts[i]), base.Doc, "", "", w.warm)
		if o.Err != nil {
			return fmt.Errorf("warm-up of %s: %w", base.Name, o.Err)
		}
		ses.baseIDs = append(ses.baseIDs, id)
	}
	return nil
}

func (w *editWorkload) systems() []*system {
	var out []*system
	for _, ses := range w.sessions {
		out = append(out, ses.sys)
	}
	return out
}

// window plays the sessions in turn, closing each one's server after it;
// the later sessions' set-up is not timed. A client sends no edit after
// the deadline.
func (w *editWorkload) window(seconds float64) (window, *outcomes, error) {
	out := w.warm // so the warm-up documents are checked too
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var total window
	for k := 0; k < editSessions && time.Now().Before(deadline); k++ {
		if k == len(w.sessions) {
			if err := w.addSession(); err != nil {
				return total, out, err
			}
		}
		ses := w.sessions[k]
		win := measure(func() []op { return ses.play(deadline, out) }, ses.sys)
		total.Ops = append(total.Ops, win.Ops...)
		total.Wall += win.Wall
		total.Alloc += win.Alloc
		total.RSSKB = win.RSSKB
		total.Caches = total.Caches.plus(win.Caches)
		ses.sys.close() // the next session's server takes its memory

	}
	return total, out, nil
}

// play runs every client's chain concurrently, closed loop.
func (ses *editSession) play(deadline time.Time, out *outcomes) []op {
	n := len(ses.chains)
	ses.done = make([]int, n)
	perClient := make([][]op, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			prev := ses.baseIDs[i]
			for k, e := range ses.chains[i] {
				if !time.Now().Before(deadline) {
					return
				}
				o, id := ses.sys.do(editKey(i, e.State), e.Delta, "", prev, out)
				perClient[i] = append(perClient[i], o)
				ses.done[i] = k + 1
				if id == "" {
					return // the PATCH itself failed: the chain cannot go on
				}
				prev = id
			}
		}(i)
	}
	wg.Wait()
	var ops []op
	for _, p := range perClient {
		ops = append(ops, p...)
	}
	return ops
}

// played returns the edits client i made in the window.
func (ses *editSession) played(i int) []edit {
	if ses.done == nil {
		return nil
	}
	return ses.chains[i][:ses.done[i]]
}

// designs covers every distinct design the clients' chains visited in the
// window, each client's unedited base included.
func (w *editWorkload) designs() (map[string]design, error) {
	m := map[string]design{}
	for _, ses := range w.sessions {
		for i, base := range w.bases {
			ds, err := chainDesigns(base, w.starts[i], ses.played(i))
			if err != nil {
				return nil, err
			}
			for state, d := range ds {
				m[editKey(i, state)] = d
			}
		}
	}
	return m, nil
}

// searchWorkload submits one search job per subset design from one
// closed-loop client.
type searchWorkload struct {
	sys *system
	ds  []design
	n   int // designs submitted in the window
}

func setupSearch(seed int64, nproc int) (*searchWorkload, error) {
	ds, err := searchCorpus(seed)
	if err != nil {
		return nil, err
	}
	sys, err := newSystem(1, nproc)
	if err != nil {
		return nil, err
	}
	return &searchWorkload{sys: sys, ds: ds}, nil
}

func (w *searchWorkload) systems() []*system { return []*system{w.sys} }

func (w *searchWorkload) window(seconds float64) (window, *outcomes, error) {
	out := newOutcomes()
	win := measure(func() []op {
		return postAll(w.sys, w.ds, "?mode=search", seconds, out)
	}, w.sys)
	w.n = len(win.Ops)
	return win, out, nil
}

// posted returns the designs the window submitted.
func (w *searchWorkload) posted() []design { return w.ds[:w.n] }

func (w *searchWorkload) designs() (map[string]design, error) { return byName(w.posted()), nil }

// run is everything one untraced run measured.
type run struct {
	Setup []float64 // seconds, one per set-up repetition
	Win   window
	Check checkResult
	// Totals are the Figure-13 totals of the workload's fixed reference
	// set: the registry designs (cold-compile), the clients' unedited
	// designs (edit-loop) or the search winners (search).
	Totals docTotals
	// Served totals every distinct served document.
	Served docTotals
	// SearchCost is the sum of the search winners' costs.
	SearchCost float64
	// Notes are extra report lines (corpus composition, per-design rows).
	Notes []string
}

// untracedRun sets a workload up, runs its timed window, then checks
// every served document outside the window.
func untracedRun(ctx context.Context, name string, seed int64, nproc int, seconds float64) (run, error) {
	w, times, err := setupWorkload(name, seed, nproc)
	if err != nil {
		return run{}, err
	}
	defer closeAll(w)
	r := run{Setup: times}
	var out *outcomes
	if r.Win, out, err = w.window(seconds); err != nil {
		return r, err
	}
	designs, err := w.designs()
	if err != nil {
		return r, err
	}
	t := time.Now()
	switch w := w.(type) {
	case *coldWorkload:
		err = r.checkCold(ctx, w, designs, out, nproc)
	case *editWorkload:
		err = r.checkEdit(ctx, w, designs, out, nproc)
	case *searchWorkload:
		err = r.checkSearch(ctx, w, out, nproc)
	}
	r.Notes = append(r.Notes, fmt.Sprintf("checks took %.1f s outside the window", time.Since(t).Seconds()))
	return r, err
}

func (r *run) checkCold(ctx context.Context, w *coldWorkload, designs map[string]design, out *outcomes, nproc int) error {
	c, err := checkDesigns(ctx, designs, out, nproc)
	if err != nil {
		return err
	}
	r.Check = c
	for i, d := range w.posted() {
		if err := r.Served.add(out.first(d.Name)); err != nil {
			return fmt.Errorf("%s: %w", d.Name, err)
		}
		if i < w.nreg {
			var t docTotals
			if err := t.add(out.first(d.Name)); err != nil {
				return err
			}
			r.Totals.Literals += t.Literals
			r.Totals.Products += t.Products
			r.Notes = append(r.Notes, fmt.Sprintf("design %-8s latency_ms %9.3f literals %4d products %4d",
				d.Name, r.Win.Ops[i].Latency, t.Literals, t.Products))
		}
	}
	r.Notes = append([]string{fmt.Sprintf(
		"corpus registry %d gen %d (gen seeds 1..%d: rejected by the extractor %d, known synthesis failures left out %d), posted %d",
		w.nreg, len(w.c.Designs)-w.nreg, genPool, w.c.Rejected, len(w.c.Failing), w.n)}, r.Notes...)
	r.Notes = append(r.Notes, fmt.Sprintf("known synthesis failures still failing: %d of %d (submitted after the window)",
		w.knownFailing(), len(w.c.Failing)))
	return nil
}

func (r *run) checkEdit(ctx context.Context, w *editWorkload, designs map[string]design, out *outcomes, nproc int) error {
	c, err := checkDesigns(ctx, designs, out, nproc)
	if err != nil {
		return err
	}
	r.Check = c
	for k := range designs {
		if err := r.Served.add(out.first(k)); err != nil {
			return fmt.Errorf("%s: %w", k, err)
		}
	}
	for i, base := range w.bases {
		if err := r.Totals.add(out.first(editKey(i, w.starts[i]))); err != nil {
			return err
		}
		edits := 0
		for _, ses := range w.sessions {
			edits += len(ses.played(i))
		}
		distinct := 0
		for k := range designs {
			if strings.HasPrefix(k, editKey(i, "")) {
				distinct++
			}
		}
		r.Notes = append(r.Notes, fmt.Sprintf("client %d design %-8s edit nodes %2d edits %5d in %d sessions, distinct designs %5d",
			i, base.Name, len(w.starts[i]), edits, len(w.sessions), distinct))
	}
	return nil
}

// checkSearch re-runs each search directly (a fresh cache, the service's
// search profile, one worker each, nproc searches at a time) to check the
// served document and take the winner's cost.
func (r *run) checkSearch(ctx context.Context, w *searchWorkload, out *outcomes, nproc int) error {
	type checked struct {
		ref  synthesis
		cost float64
		err  error
	}
	ds := w.posted()
	refs := inParallel(nproc, len(ds), func(i int) checked {
		ref, cost, err := directSearch(ctx, ds[i].Doc, 1)
		return checked{ref, cost, err}
	})
	for i, d := range ds {
		r.Check.record(d.Name, judge(d, out.byInput[d.Name], refs[i].ref, refs[i].err))
		r.SearchCost += refs[i].cost
		var t docTotals
		if err := t.add(out.first(d.Name)); err != nil {
			return err
		}
		r.Totals.Literals += t.Literals
		r.Totals.Products += t.Products
		r.Served.NonHazardFree += t.NonHazardFree // the winners are all that is served
		r.Notes = append(r.Notes, fmt.Sprintf("design %-8s search_s %8.3f cost %10.3f literals %4d products %4d",
			d.Name, r.Win.Ops[i].Latency/1000, refs[i].cost, t.Literals, t.Products))
	}
	return nil
}

// statsDelta is what a pass did to the service's caches.
type statsDelta struct {
	Memo  memo.Stats
	Stage stage.Stats
	Dedup int64
}

// snapshot reads the cache counters of servers: the process's dedup
// counter and the sum of the servers' memo and stage counters.
func snapshot(systems ...*system) statsDelta {
	d := statsDelta{Dedup: counter("service/dedup_hits")}
	for _, s := range systems {
		d = d.plus(statsDelta{Memo: s.cache.Stats(), Stage: s.engine.Stats()})
	}
	return d
}

func (a statsDelta) plus(b statsDelta) statsDelta  { return a.add(b, 1) }
func (a statsDelta) since(b statsDelta) statsDelta { return a.add(b, -1) }

// add returns a + k·b, field by field.
func (a statsDelta) add(b statsDelta, k int64) statsDelta {
	return statsDelta{
		Memo: memo.Stats{
			Hits:       a.Memo.Hits + k*b.Memo.Hits,
			Misses:     a.Memo.Misses + k*b.Memo.Misses,
			DedupWaits: a.Memo.DedupWaits + k*b.Memo.DedupWaits,
		},
		Stage: stage.Stats{
			GTHits: a.Stage.GTHits + k*b.Stage.GTHits, GTMisses: a.Stage.GTMisses + k*b.Stage.GTMisses,
			ExtractHits: a.Stage.ExtractHits + k*b.Stage.ExtractHits, ExtractMisses: a.Stage.ExtractMisses + k*b.Stage.ExtractMisses,
			LTHits: a.Stage.LTHits + k*b.Stage.LTHits, LTMisses: a.Stage.LTMisses + k*b.Stage.LTMisses,
			SynthHits: a.Stage.SynthHits + k*b.Stage.SynthHits, SynthMisses: a.Stage.SynthMisses + k*b.Stage.SynthMisses,
		},
		Dedup: a.Dedup + k*b.Dedup,
	}
}
