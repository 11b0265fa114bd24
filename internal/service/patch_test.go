package service

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cdfg"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/diffeq"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/stage"
)

// swapTarget finds an FU-bound addition node in g and returns it with
// the delta JSON flipping it to a subtraction.
func swapTarget(t *testing.T, g *cdfg.Graph) (*cdfg.Node, []byte) {
	t.Helper()
	for _, n := range g.Nodes() {
		if n.Kind == cdfg.KindOp && n.FU != "" && len(n.Stmts) == 1 && n.Stmts[0].Op == cdfg.OpAdd {
			s := n.Stmts[0]
			delta := fmt.Sprintf(
				`{"version":1,"kind":"cdfg-delta","ops":[{"op":"retype_node","id":%d,"stmts":[{"dst":%q,"op":"-","src1":%q,"src2":%q}]}]}`,
				n.ID, s.Dst, s.Src1, s.Src2)
			return n, []byte(delta)
		}
	}
	t.Fatal("no FU-bound addition in graph")
	return nil, nil
}

func patchJob(t *testing.T, url, id string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPatch, url+"/v1/jobs/"+id, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestHTTPPatchEndToEnd is the incremental-iteration acceptance path:
// submit a design, PATCH it with a single-FU op swap, and assert the
// derived job is accepted with a local dirty region, completes with a
// result byte-identical to a cold pipeline run on the patched graph,
// and reports the pipeline stage it finished in.
func TestHTTPPatchEndToEnd(t *testing.T) {
	tr := obs.New(256)
	tr.Enable()
	obs.SetTracer(tr)
	defer obs.SetTracer(nil)

	store, err := memo.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Concurrency: 2, Engine: stage.New(store)})
	defer m.Close()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	base := diffeq.Build(diffeq.DefaultParams())
	doc, err := codec.EncodeGraph(base)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	decodeBody(t, resp, http.StatusAccepted, &st)
	baseJob, err := m.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, baseJob, StateDone)

	// The completed status reports the last pipeline stage observed.
	resp, err = http.Get(srv.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, http.StatusOK, &st)
	if st.Stage == "" {
		t.Error("completed job status carries no stage name")
	}

	// PATCH with the op swap: accepted, classified local to one FU.
	target, delta := swapTarget(t, base)
	resp = patchJob(t, srv.URL, st.ID, delta)
	var patched JobStatus
	decodeBody(t, resp, http.StatusAccepted, &patched)
	if patched.ID == st.ID || patched.ID == "" {
		t.Fatalf("patch did not mint a new job: %+v", patched)
	}
	if patched.Dirty == nil || patched.Dirty.Global {
		t.Fatalf("dirty region %+v, want local", patched.Dirty)
	}
	if len(patched.Dirty.FUs) != 1 || patched.Dirty.FUs[0] != target.FU {
		t.Fatalf("dirty FUs %v, want [%s]", patched.Dirty.FUs, target.FU)
	}

	pj, err := m.Get(patched.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, pj, StateDone)

	// Byte-identical to a cold full pipeline run on the patched graph.
	if !bytes.Equal(pj.Result(), coldPatchedRun(t, base, delta)) {
		t.Error("patched job result differs from a cold run on the edited graph")
	}

	// The base job's stored graph was not mutated by the patch.
	again, err := codec.EncodeGraph(base)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, doc) {
		t.Error("PATCH mutated the base job's graph")
	}
}

// coldPatchedRun applies delta to a copy of base and returns the synthesis
// document of a direct, uncached core run on the result.
func coldPatchedRun(t *testing.T, base *cdfg.Graph, delta []byte) []byte {
	t.Helper()
	d, err := codec.DecodeDelta(delta)
	if err != nil {
		t.Fatal(err)
	}
	edited, err := codec.ApplyDelta(base, d)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Run(edited.Clone(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	results, err := s.SynthesizeLogic()
	if err != nil {
		t.Fatal(err)
	}
	want, err := codec.EncodeSynthesis(s, results)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestPatchDefaultEngine: a Manager configured without an Engine still
// runs every job through a (memory-only) stage engine, so a single-FU
// PATCH replays the unchanged stages — stage hits > 0 — and serves a
// document byte-identical to a cold run on the edited graph.
func TestPatchDefaultEngine(t *testing.T) {
	m := New(Config{Concurrency: 1})
	defer m.Close()
	if m.cfg.Engine == nil {
		t.Fatal("zero-Engine Config left the Manager without a stage engine")
	}
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	base := diffeq.Build(diffeq.DefaultParams())
	doc, err := codec.EncodeGraph(base)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	decodeBody(t, resp, http.StatusAccepted, &st)
	baseJob, err := m.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, baseJob, StateDone)
	before := m.cfg.Engine.Stats()

	_, delta := swapTarget(t, base)
	var patched JobStatus
	decodeBody(t, patchJob(t, srv.URL, st.ID, delta), http.StatusAccepted, &patched)
	pj, err := m.Get(patched.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, pj, StateDone)

	if hits := m.cfg.Engine.Stats().Hits() - before.Hits(); hits <= 0 {
		t.Errorf("patched run made %d stage hits, want > 0", hits)
	}
	if !bytes.Equal(pj.Result(), coldPatchedRun(t, base, delta)) {
		t.Error("patched job result differs from a cold run on the edited graph")
	}
}

// TestHTTPPatchErrors pins the failure status codes: unknown job 404,
// malformed delta 400, semantically invalid delta 422.
func TestHTTPPatchErrors(t *testing.T) {
	m := New(Config{Concurrency: 1})
	defer m.Close()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	base := diffeq.Build(diffeq.DefaultParams())
	doc, err := codec.EncodeGraph(base)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	decodeBody(t, resp, http.StatusAccepted, &st)
	job, err := m.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, StateDone)

	_, delta := swapTarget(t, base)
	cases := []struct {
		name string
		id   string
		body []byte
		want int
	}{
		{"unknown job", "job-999999", delta, http.StatusNotFound},
		{"not json", st.ID, []byte("{"), http.StatusBadRequest},
		{"wrong kind", st.ID, []byte(`{"version":1,"kind":"cdfg","ops":[{"op":"remove_arc","id":0}]}`), http.StatusBadRequest},
		{"unknown node", st.ID, []byte(`{"version":1,"kind":"cdfg-delta","ops":[{"op":"remove_node","id":424242}]}`), http.StatusUnprocessableEntity},
		{"wrong base", st.ID, []byte(`{"version":1,"kind":"cdfg-delta","base":"other","ops":[{"op":"remove_node","id":424242}]}`), http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		resp := patchJob(t, srv.URL, tc.id, tc.body)
		if body := readAll(t, resp); resp.StatusCode != tc.want {
			t.Errorf("%s: status %d (body %s), want %d", tc.name, resp.StatusCode, strings.TrimSpace(body), tc.want)
		}
	}

	// A patch onto a terminal job still works off its input graph; waiting
	// is not required. Verified implicitly above — but also assert a patch
	// submitted while the manager drains is refused like any submission.
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp = patchJob(t, srv.URL, st.ID, delta)
	if readAll(t, resp); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("patch while draining: %d, want 503", resp.StatusCode)
	}
}
