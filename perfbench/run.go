package main

import (
	"bytes"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/codec"
)

// served is one distinct outcome the service gave for an input.
type served struct {
	Doc []byte
	Err error
}

// outcomes keeps, per input, the distinct outcomes the service served.
// Repeated identical documents are kept once.
type outcomes struct {
	mu      sync.Mutex
	byInput map[string][]served
}

func newOutcomes() *outcomes { return &outcomes{byInput: map[string][]served{}} }

func (o *outcomes) add(input string, doc []byte, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	prior := o.byInput[input]
	for _, p := range prior {
		if (p.Err == nil) == (err == nil) && bytes.Equal(p.Doc, doc) {
			return
		}
	}
	o.byInput[input] = append(prior, served{Doc: doc, Err: err})
}

// first returns the first document served for input (nil if it failed).
func (o *outcomes) first(input string) []byte {
	if s := o.byInput[input]; len(s) > 0 {
		return s[0].Doc
	}
	return nil
}

// op is one timed client operation: POST or PATCH until the document is
// in hand.
type op struct {
	Input   string
	Latency float64 // ms
	Err     error
}

// window is the measured part of a pass.
type window struct {
	Ops    []op
	Wall   float64    // ms from the first submission to the last document
	Alloc  uint64     // bytes allocated during the window
	RSSKB  int64      // peak resident set size of the process so far
	Caches statsDelta // what the window did to the servers' caches
}

// measure runs body as the timed window against servers: it collects
// garbage first so set-up litter is not charged to the window, then
// records wall time, allocation, peak RSS and the servers' cache counters
// around body.
func measure(body func() []op, servers ...*system) window {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	caches := snapshot(servers...)
	t := time.Now()
	ops := body()
	wall := ms(time.Since(t))
	runtime.ReadMemStats(&after)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return window{Ops: ops, Wall: wall, Alloc: after.TotalAlloc - before.TotalAlloc, RSSKB: ru.Maxrss,
		Caches: snapshot(servers...).since(caches)}
}

// do runs one client operation against the service: submit (a POST of
// doc, or a PATCH of it onto base when base is set), wait for the job and
// fetch its document. It records the outcome under input and returns the
// op and the new job's ID.
func (s *system) do(input string, doc []byte, query, base string, out *outcomes) (op, string) {
	trace := s.tr.newTrace()
	t := time.Now()
	root := s.tr.begin(trace, 0, "op")
	var id string
	var err error
	if base == "" {
		id, err = s.post(doc, query, trace, root)
	} else {
		id, err = s.patch(base, doc, trace, root)
	}
	var res []byte
	if err == nil {
		res, err = s.finish(id, trace, root)
	}
	s.tr.end(root, err != nil)
	o := op{Input: input, Latency: ms(time.Since(t)), Err: err}
	out.add(input, res, err)
	return o, id
}

// docTotals sums the Figure-13 and hazard-freedom figures of documents.
type docTotals struct {
	Literals, Products, NonHazardFree int
}

func (t *docTotals) add(doc []byte) error {
	if doc == nil {
		return nil
	}
	d, err := codec.DecodeSynthesis(doc)
	if err != nil {
		return err
	}
	t.Literals += d.TotalLiterals
	t.Products += d.TotalProducts
	for _, c := range d.Controllers {
		t.NonHazardFree += c.NonHazardFree
	}
	return nil
}

// A run sets up at least minSetupReps times and until set-up has taken
// minSetupSeconds in all (at most maxSetupReps times); setup_s is the
// median. A set-up of a millisecond is repeated hundreds of times, so its
// median is as steady as that of a slow one.
const (
	minSetupReps    = 3
	maxSetupReps    = 1000
	minSetupSeconds = 2
)

// repeatSetup runs setup as often as the constants above say, timing
// each, and keeps the last result, releasing the earlier ones.
func repeatSetup[T any](setup func() (T, error), release func(T)) (T, []float64, error) {
	var last T
	var times []float64
	total := 0.0
	for i := 0; i < maxSetupReps && (i < minSetupReps || total < minSetupSeconds); i++ {
		t := time.Now()
		v, err := setup()
		if err != nil {
			return last, nil, err
		}
		times = append(times, time.Since(t).Seconds())
		total += times[i]
		if i > 0 {
			release(last)
		}
		last = v
	}
	return last, times, nil
}
