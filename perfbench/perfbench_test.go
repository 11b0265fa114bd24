package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/codec"
)

func TestPercentileAndTailRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1: percentile must sort
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
	for _, c := range []struct {
		n, beyond int
		ok        bool
	}{{100, 10, true}, {99, 9, false}, {101, 10, true}, {10, 1, false}, {1, 0, false}, {0, 0, false}} {
		if got := beyond(c.n, 90); got != c.beyond {
			t.Errorf("beyond(%d, 90) = %d, want %d", c.n, got, c.beyond)
		}
		if got := tailOK(c.n, 90); got != c.ok {
			t.Errorf("tailOK(%d, 90) = %v, want %v", c.n, got, c.ok)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

func names(ds []design) []string {
	var out []string
	for _, d := range ds {
		out = append(out, d.Name)
	}
	return out
}

func TestColdCorpusReproducesFromSeed(t *testing.T) {
	a, nreg, err := coldCorpus(7)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := coldCorpus(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Designs) != len(b.Designs) {
		t.Fatalf("same seed, %d vs %d designs", len(a.Designs), len(b.Designs))
	}
	for i := range a.Designs {
		if a.Designs[i].Name != b.Designs[i].Name || !bytes.Equal(a.Designs[i].Doc, b.Designs[i].Doc) {
			t.Fatalf("same seed, design %d differs: %s vs %s", i, a.Designs[i].Name, b.Designs[i].Name)
		}
	}
	c, _, err := coldCorpus(8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(names(a.Designs), names(c.Designs)) {
		t.Error("seeds 7 and 8 drew the pool in the same order")
	}
	if nreg != 5 || len(a.Designs) < 100 {
		t.Errorf("corpus of %d designs (%d registry) is too small for a p90", len(a.Designs), nreg)
	}
}

// The extractor filter must account for every pool seed: a design is in
// the corpus, counted as rejected, or a known failure, and the counts are
// reported rather than silently shrinking the corpus.
func TestExtractorFilterReportsRejections(t *testing.T) {
	c, err := drawGen(3)
	if err != nil {
		t.Fatal(err)
	}
	if c.Drawn != genPool {
		t.Errorf("drew %d seeds, want the pool of %d", c.Drawn, genPool)
	}
	if c.Rejected == 0 {
		t.Error("no pool design was rejected; the filter is not reporting")
	}
	if got := len(c.Designs) + c.Rejected + len(c.Failing); got != c.Drawn {
		t.Errorf("corpus %d + rejected %d + known failures %d = %d, want drawn %d",
			len(c.Designs), c.Rejected, len(c.Failing), got, c.Drawn)
	}
	if len(c.Failing) != len(knownFailures) {
		t.Errorf("%d known failures set aside, want %d", len(c.Failing), len(knownFailures))
	}
	for _, d := range c.Designs {
		g, err := codec.DecodeGraph(d.Doc)
		if err != nil {
			t.Fatal(err)
		}
		if extractorRejects(g) {
			t.Errorf("%s is in the corpus but the extractor rejects it", d.Name)
		}
	}
}

func TestEditChainsReproduceFromSeed(t *testing.T) {
	bases, err := editClientDesigns(5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := names(bases)[:4], []string{"ewf", "ar", "diffeq", "fir"}; !reflect.DeepEqual(got, want) {
		t.Errorf("first clients own %v, want %v", got, want)
	}
	for i, base := range bases {
		start, chain, err := editChain(base, int64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		start2, chain2, err := editChain(base, int64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		if start != start2 || !reflect.DeepEqual(chain, chain2) {
			t.Fatalf("%s: same seed, different chains", base.Name)
		}
		if want := 1<<len(start) - 1; len(chain) != want {
			t.Errorf("%s: %d edits over %d nodes, want %d", base.Name, len(chain), len(start), want)
		}
		// Every edit flips exactly one node and reaches a new design.
		seen := map[string]bool{start: true}
		prev := start
		for k, e := range chain {
			diff := 0
			for j := range prev {
				if prev[j] != e.State[j] {
					diff++
				}
			}
			if diff != 1 || seen[e.State] {
				t.Fatalf("%s edit %d: %s -> %s (flips %d, seen %v)", base.Name, k+1, prev, e.State, diff, seen[e.State])
			}
			seen[e.State], prev = true, e.State
		}
		// The chain's designs keep their control flow: each one still
		// terminates under the interpreter.
		ds, err := chainDesigns(base, start, chain[:3])
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ds {
			if _, err := d.want(); err != nil {
				t.Errorf("%s: reference: %v", d.Name, err)
			}
		}
	}
}

// lastJSON runs the benchmark's command line and decodes its last line.
func lastJSON(t *testing.T, args ...string) (result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := mainErr(append(args, "--out", t.TempDir()), &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return r, stdout.String()
}

func metricNames(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// A short run of each workload, untraced and traced: the window is cut
// after the first op or so, and the JSON line carries exactly the metrics
// BENCHMARK.json lists.
func TestSmokeEachWorkload(t *testing.T) {
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{}
	for _, m := range spec.EndToEnd {
		want["0"] = append(want["0"], m.Name)
	}
	for _, m := range spec.PerLayer {
		want["1"] = append(want["1"], m.Name)
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			r, out := lastJSON(t, "--workload", w, "--seed", "1", "--seconds", "0.05", "--trace", trace)
			if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("%s trace %s: correct %v attempted %d failed %d\n%s", w, trace, r.Correct, r.Attempted, r.Failed, out)
			}
			got := metricNames(r.Metrics)
			if !sameSet(got, want[trace]) {
				t.Errorf("%s trace %s: metrics %v, BENCHMARK.json lists %v", w, trace, got, want[trace])
			}
		}
	}
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	in := map[string]bool{}
	for _, x := range a {
		in[x] = true
	}
	for _, x := range b {
		if !in[x] {
			return false
		}
	}
	return true
}

// Self times: a span's duration minus its children's, so the self times
// of one op's spans add up to the op's root span.
func TestSelfTimesAddUpToTheRoot(t *testing.T) {
	tr := newTracer()
	tr.op(7)
	if err := tr.call("synth", func() error {
		return tr.call("hfmin", func() error { return nil })
	}); err != nil {
		t.Fatal(err)
	}
	tr.call("codec.encode", func() error { return nil })
	tr.pop(false)
	var parents []int
	for _, s := range tr.spans {
		if s.Trace != 7 {
			t.Errorf("span %s has trace %d, want 7", s.Name, s.Trace)
		}
		parents = append(parents, s.Parent)
	}
	if want := []int{0, 1, 2, 1}; !reflect.DeepEqual(parents, want) {
		t.Errorf("parents %v, want %v", parents, want)
	}

	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "synth", Start: 10, End: 80},
		{ID: 3, Parent: 2, Name: "hfmin", Start: 20, End: 50},
		{ID: 4, Parent: 2, Name: "hfmin", Start: 55, End: 60},
		{ID: 5, Parent: 1, Name: "codec.encode", Start: 80, End: 95},
	}
	self := selfTimes(spans)
	want := map[string]int64{"op": 15, "synth": 35, "hfmin": 35, "codec.encode": 15}
	var sum int64
	for name, d := range self {
		if int64(d) != want[name] {
			t.Errorf("self time of %s = %d, want %d", name, d, want[name])
		}
		sum += int64(d)
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root's 100", sum)
	}
}
