package main

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"gdeltmine/internal/registry"
)

func TestSequencesRepeatForASeed(t *testing.T) {
	sp := spanOf(servingConfig())
	if a, b := scanSequence(7, sp, 500), scanSequence(7, sp, 500); !reflect.DeepEqual(a, b) {
		t.Fatal("scan sequence differs between two draws with the same seed")
	}
	if reflect.DeepEqual(scanSequence(7, sp, 500), scanSequence(8, sp, 500)) {
		t.Fatal("scan sequence ignores the seed")
	}
	if a, b := hotKeys(7, sp), hotKeys(7, sp); !reflect.DeepEqual(a, b) || len(a) != 64 {
		t.Fatalf("hot keys: %d keys, repeatable %v", len(a), reflect.DeepEqual(a, b))
	}
	if a, b := zipfSequence(7, 64, 2000, hotZipf), zipfSequence(7, 64, 2000, hotZipf); !reflect.DeepEqual(a, b) {
		t.Fatal("hot draw differs between two draws with the same seed")
	}
	isp := spanOf(ingestConfig())
	if a, b := ingestSequence(7, isp, 500), ingestSequence(7, isp, 500); !reflect.DeepEqual(a, b) {
		t.Fatal("ingest sequence differs between two draws with the same seed")
	}

	// Every generated request names a kind and parses against its schema.
	all := append(scanSequence(7, sp, 500), hotKeys(7, sp)...)
	all = append(all, ingestSequence(7, isp, 100)...)
	for _, r := range all {
		d, ok := registry.Lookup(r.Kind)
		if !ok {
			t.Fatalf("%s: unknown kind", r.Path())
		}
		if _, err := d.ParseURLValues(r.Values()); err != nil {
			t.Fatalf("%s: %v", r.Path(), err)
		}
	}
}

func TestZipfFavoursTheFirstKeys(t *testing.T) {
	counts := make([]int, 64)
	for _, i := range zipfSequence(1, 64, 20000, hotZipf) {
		counts[i]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[10] || counts[10] <= counts[63] {
		t.Fatalf("draw is not skewed toward low keys: %v", counts)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	v, err := percentile(samples(1000), 0.99)
	if err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 with 10 beyond", v, err)
	}
	if _, err := percentile(samples(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples leaves 9 beyond and must be refused")
	}
	if v, err := percentile(samples(100), 0.9); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(samples(99), 0.9); err == nil {
		t.Fatal("p90 of 99 samples must be refused")
	}
	if _, err := summarize(samples(19), 0.5); err == nil {
		t.Fatal("a median of 19 samples leaves 9 beyond and must be refused")
	}
	if d, err := summarize(samples(1000), 0.99); err != nil || d.N != 1000 || d.P50 != 500 || d.Tail != 990 {
		t.Fatalf("summarize = %+v, %v", d, err)
	}
}

func TestSliceLoadReadsTheQuietTail(t *testing.T) {
	// 12000 completions, one per millisecond, all 1 ms long except bursts
	// of 100 ms stalls in the second slice and over the last half.
	done := make([]time.Duration, 12000)
	ms := make([]float64, 12000)
	for i := range ms {
		done[i] = time.Duration(i+1) * time.Millisecond
		ms[i] = 1
		if i >= 1000 && i < 1100 || i >= 6000 && i%50 == 0 {
			ms[i] = 100
		}
	}
	f, err := sliceLoad(done, ms)
	if err != nil {
		t.Fatal(err)
	}
	if f.Slices != 9 || f.TailSlices != 12 || f.SliceP99s[1] != 100 || f.SliceP99s[11] != 100 {
		t.Fatalf("figures %+v: want 9 slices and 12 tail slices of 1000", f)
	}
	if f.P99 != 1 || f.P50 != 1 {
		t.Fatalf("p50 %v, p99 %v: the stalls must not set them", f.P50, f.P99)
	}
	if f.QPS < 999 || f.QPS > 1001 {
		t.Fatalf("qps %v, want 1000", f.QPS)
	}
	if f.All.Tail != 100 || f.All.N != 12000 {
		t.Fatalf("whole-run p99 %v, want 100", f.All.Tail)
	}
	if _, err := sliceLoad(done[:999], ms[:999]); err == nil {
		t.Fatal("999 samples cannot fill a slice whose p99 has ten beyond it")
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {1, 5}, {0.125, 1.5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Fatalf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestSameJSON(t *testing.T) {
	for _, c := range []struct {
		got, want string
		ok        bool
	}{
		{`{"a":[1,2],"b":0.5}`, `{"b":0.5,"a":[1,2]}`, true},
		{`{"x":1.0000000000001}`, `{"x":1}`, true},
		{`{"x":1.000001}`, `{"x":1}`, false},
		{`{"n":10}`, `{"n":11}`, false},
		{`{"n":9007199254740993}`, `{"n":9007199254740992}`, false},
		{`{"a":[1,2,3]}`, `{"a":[1,2]}`, false},
		{`{"a":"US"}`, `{"a":"UK"}`, false},
		{`{"a":1}`, `{"a":1,"b":2}`, false},
		{`not json`, `{}`, false},
	} {
		if err := sameJSON([]byte(c.got), []byte(c.want)); (err == nil) != c.ok {
			t.Errorf("sameJSON(%s, %s) = %v, want match %v", c.got, c.want, err, c.ok)
		}
	}
}

// TestWrongBodyCountsAsFailed drives the closed loop against a server that
// answers one request with a wrong number and another with an error, and
// checks that exactly those count as failed.
func TestWrongBodyCountsAsFailed(t *testing.T) {
	good := `{"articles": 42, "share": 0.25}` + "\n"
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("k") {
		case "wrong":
			w.Write([]byte(`{"articles": 43, "share": 0.25}`))
		case "error":
			http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
		default:
			w.Write([]byte(good))
		}
	}))
	defer srv.Close()
	seq := []request{
		{Kind: "count", Query: "k=ok"},
		{Kind: "count", Query: "k=wrong"},
		{Kind: "count", Query: "k=ok2"},
		{Kind: "count", Query: "k=error"},
		{Kind: "count", Query: "k=known"},
	}
	l := &loop{Base: srv.URL, Seq: seq, Clients: 2, Stop: time.Now().Add(time.Minute),
		Good: map[request][]byte{seq[4]: []byte(good)}}
	samples, _ := l.run()
	if len(samples) != len(seq) {
		t.Fatalf("%d samples for %d requests", len(samples), len(seq))
	}
	failed, first := tally(samples, seq, func(r request, s *sample) error {
		return sameJSON(s.Body, []byte(good))
	})
	if failed != 2 {
		t.Fatalf("failed = %d (first: %v), want 2: the wrong body and the 500", failed, first)
	}
	if !strings.Contains(first.Error(), "k=") {
		t.Fatalf("first failure %q does not name its request", first)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 60, End: 70},  // disjoint
		{ID: 5, Parent: 1, Name: "d", Start: 90, End: 120}, // runs past the parent
		{ID: 6, Parent: 4, Name: "e", Start: 62, End: 65},  // grandchild
		{ID: 7, Parent: 1, Name: "f", Start: 200, End: 210},
	}
	self := selfTimes(spans)
	// Covered: [10,50) + [60,70) + [90,100) = 60 of 100.
	want := map[uint64]int64{1: 40, 2: 20, 3: 30, 4: 7, 5: 30, 6: 3, 7: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
}

// TestTraceLinksRouterAndReplica checks that a replica's handler span finds
// its router parent across an HTTP hop that forwards no trace headers.
func TestTraceLinksRouterAndReplica(t *testing.T) {
	tr := newTracer()
	replica := httptest.NewServer(traceHandler(tr, "serve.handler", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}"))
	})))
	defer replica.Close()
	upstream := &http.Client{Transport: traceTransport{base: http.DefaultTransport}}
	front := httptest.NewServer(traceHandler(tr, "router.handler", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := http.NewRequestWithContext(r.Context(), http.MethodGet, replica.URL, nil)
		resp, err := upstream.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		resp.Body.Close()
	})))
	defer front.Close()
	l := &loop{Base: front.URL, Seq: []request{{Kind: "stats"}}, Clients: 1, Stop: time.Now().Add(time.Minute), Tracer: tr}
	if s, _ := l.run(); len(s) != 1 || s[0].Status != http.StatusOK {
		t.Fatalf("request failed: %+v", s)
	}
	byName := map[string]Span{}
	for _, s := range tr.Spans() {
		byName[s.Name] = s
	}
	client, rt, rep := byName["client.request"], byName["router.handler"], byName["serve.handler"]
	if rt.Parent != client.ID || rep.Parent != rt.ID {
		t.Fatalf("parents: router %d (want %d), replica %d (want %d)", rt.Parent, client.ID, rep.Parent, rt.ID)
	}
	if client.Req == 0 || rt.Req != client.Req || rep.Req != client.Req {
		t.Fatalf("request IDs differ: %d %d %d", client.Req, rt.Req, rep.Req)
	}
}
