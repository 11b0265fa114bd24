package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/stage"
)

var obsOnce sync.Once

// installObs installs the process-wide metrics registry and an enabled
// span tracer, as asyncsynthd does at start-up.
func installObs() {
	obsOnce.Do(func() {
		obs.SetMetrics(obs.NewMetrics())
		tr := obs.New(0)
		tr.Enable()
		obs.SetTracer(tr)
	})
}

// counter reads one obs counter (0 before installObs).
func counter(name string) int64 {
	if m := obs.Gather(); m != nil {
		return m.Counter(name)
	}
	return 0
}

// system is one job server wired as asyncsynthd wires it without a cache
// directory: an in-memory memo cache as the minimizer, an in-memory stage
// store behind the incremental engine, and request dedup on.
type system struct {
	mgr     *service.Manager
	handler http.Handler
	cache   *memo.Cache
	engine  *stage.Engine
	// tr, when set, records a span around every service call.
	tr     *tracer
	closed sync.Once
}

func newSystem(concurrency, parallelism int) (*system, error) {
	installObs()
	cache, err := memo.New("")
	if err != nil {
		return nil, err
	}
	store, err := memo.NewStore("")
	if err != nil {
		return nil, err
	}
	engine := stage.New(store)
	mgr := service.New(service.Config{
		Concurrency: concurrency,
		Parallelism: parallelism,
		Minimizer:   cache,
		Engine:      engine,
		Dedup:       true,
	})
	return &system{mgr: mgr, handler: mgr.Handler(), cache: cache, engine: engine}, nil
}

// close drains the server and waits for its runners to exit; closing
// again does nothing.
func (s *system) close() { s.closed.Do(s.mgr.Close) }

// reply is one in-process HTTP response.
type reply struct {
	Status int
	Body   []byte
}

// responseBuffer is a minimal http.ResponseWriter that keeps the body, or
// drops it when discard is set (the event stream a client waits on).
type responseBuffer struct {
	header  http.Header
	status  int
	body    bytes.Buffer
	discard bool
}

func (w *responseBuffer) Header() http.Header {
	if w.header == nil {
		w.header = http.Header{}
	}
	return w.header
}

func (w *responseBuffer) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *responseBuffer) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	if w.discard {
		return len(p), nil
	}
	return w.body.Write(p)
}

// Flush makes the writer an http.Flusher, which the SSE endpoint needs.
func (w *responseBuffer) Flush() {}

// serve sends one request straight into the handler (no sockets).
func (s *system) serve(method, path, contentType string, body []byte, discard bool) (reply, error) {
	req, err := http.NewRequestWithContext(context.Background(), method, "http://perfbench"+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	w := &responseBuffer{discard: discard}
	s.handler.ServeHTTP(w, req)
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return reply{Status: w.status, Body: w.body.Bytes()}, nil
}

// jobStatus is the part of service.JobStatus a client reads.
type jobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
}

// finish waits for job id to end (its event stream closes when the job is
// terminal) and fetches its synthesis document. A failed or cancelled job
// is an error carrying the job's own error text. The calls are spans of
// op trace under root.
func (s *system) finish(id string, trace, root int) ([]byte, error) {
	sp := s.tr.begin(trace, root, "service.wait")
	_, err := s.serve(http.MethodGet, "/v1/jobs/"+id+"/events", "", nil, true)
	s.tr.end(sp, err != nil)
	if err != nil {
		return nil, err
	}
	sp = s.tr.begin(trace, root, "service.result")
	r, err := s.serve(http.MethodGet, "/v1/jobs/"+id+"/result", "", nil, false)
	s.tr.end(sp, err != nil || r.Status != http.StatusOK)
	if err != nil {
		return nil, err
	}
	if r.Status == http.StatusOK {
		return r.Body, nil
	}
	st, err := s.serve(http.MethodGet, "/v1/jobs/"+id, "", nil, false)
	if err != nil {
		return nil, err
	}
	var js jobStatus
	if err := json.Unmarshal(st.Body, &js); err != nil {
		return nil, fmt.Errorf("job %s: status %d", id, r.Status)
	}
	return nil, fmt.Errorf("job %s %s: %s", id, js.State, js.Error)
}

// submit sends a POST of a graph document (query selects the job mode)
// or, with a base job, a PATCH of a delta document onto it, and returns
// the new job's ID.
func (s *system) submit(method, path string, doc []byte, trace, root int) (string, error) {
	sp := s.tr.begin(trace, root, "service.submit")
	r, err := s.serve(method, path, "application/json", doc, false)
	if err == nil && r.Status != http.StatusAccepted {
		err = fmt.Errorf("status %d: %s", r.Status, bytes.TrimSpace(r.Body))
	}
	s.tr.end(sp, err != nil)
	if err != nil {
		return "", err
	}
	var st jobStatus
	if err := json.Unmarshal(r.Body, &st); err != nil {
		return "", fmt.Errorf("decoding job status: %w", err)
	}
	return st.ID, nil
}

// post submits doc as a new job.
func (s *system) post(doc []byte, query string, trace, root int) (string, error) {
	return s.submit(http.MethodPost, "/v1/jobs"+query, doc, trace, root)
}

// patch PATCHes a delta document onto job base.
func (s *system) patch(base string, delta []byte, trace, root int) (string, error) {
	return s.submit(http.MethodPatch, "/v1/jobs/"+base, delta, trace, root)
}
