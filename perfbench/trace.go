package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark's own
// code around the call. Spans of one request share Req; Parent is the
// span that caused this one (0 for a root). Times are nanoseconds since
// the tracer started.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs share the traced code path at the cost of a
// nil check.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []Span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]Span, 0, 1<<16)} }

// open is a started span; close it with end.
type open struct {
	t *tracer
	s Span
}

// begin starts a span of request req under parent.
func (t *tracer) begin(name, attr string, req, parent uint64) open {
	if t == nil {
		return open{}
	}
	return open{t: t, s: Span{ID: t.ids.Add(1), Parent: parent, Req: req, Name: name, Attr: attr,
		Start: int64(time.Since(t.epoch))}}
}

// end records the span.
func (o open) end() {
	if o.t == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.epoch))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// newReq allocates a request ID.
func (t *tracer) newReq() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// Spans returns the recorded spans.
func (t *tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its children, clipped to it.
func selfTimes(spans []Span) map[uint64]int64 {
	children := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered, curLo, curHi int64
		active := false
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			switch {
			case !active:
				curLo, curHi, active = lo, hi, true
			case lo > curHi:
				covered += curHi - curLo
				curLo, curHi = lo, hi
			case hi > curHi:
				curHi = hi
			}
		}
		if active {
			covered += curHi - curLo
		}
		out[s.ID] = s.Dur() - covered
	}
	return out
}

// Trace context crosses HTTP hops in two headers the benchmark's own
// wrappers set and read; the router does not forward arbitrary headers,
// so its hop carries them in the request context to traceTransport.
const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
)

type traceCtxKey struct{}

type traceIDs struct{ req, span uint64 }

func idsFromHeader(h http.Header) traceIDs {
	req, _ := strconv.ParseUint(h.Get(hdrReq), 10, 64)
	sp, _ := strconv.ParseUint(h.Get(hdrSpan), 10, 64)
	return traceIDs{req: req, span: sp}
}

func (ids traceIDs) set(h http.Header) {
	h.Set(hdrReq, strconv.FormatUint(ids.req, 10))
	h.Set(hdrSpan, strconv.FormatUint(ids.span, 10))
}

// traceHandler wraps h in a span named name, parented by the caller's
// span from the trace headers. The span's IDs travel on in the request
// context for traceTransport. With a nil tracer it returns h unchanged.
func traceHandler(t *tracer, name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		in := idsFromHeader(r.Header)
		sp := t.begin(name, "", in.req, in.span)
		ctx := context.WithValue(r.Context(), traceCtxKey{}, traceIDs{req: in.req, span: sp.s.ID})
		h.ServeHTTP(w, r.WithContext(ctx))
		sp.end()
	})
}

// traceTransport copies the trace IDs from an outgoing request's context
// into its headers, so a replica's handler span finds its router parent.
type traceTransport struct{ base http.RoundTripper }

func (tt traceTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ids, ok := r.Context().Value(traceCtxKey{}).(traceIDs); ok {
		r = r.Clone(r.Context())
		ids.set(r.Header)
	}
	return tt.base.RoundTrip(r)
}

// timedTransport records one span per round trip, named name with the
// URL path as attribute; the feed fetches of ingest go through it.
type timedTransport struct {
	t    *tracer
	name string
	base http.RoundTripper
}

func (tt timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	sp := tt.t.begin(tt.name, r.URL.Path, 0, 0)
	resp, err := tt.base.RoundTrip(r)
	if err != nil {
		sp.end()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

// spanBody ends its span when the body is closed, so a fetch's span covers
// reading the file, not just the headers.
type spanBody struct {
	io.ReadCloser
	sp   open
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.sp.end)
	return err
}
