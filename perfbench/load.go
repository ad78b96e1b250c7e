package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// server is an http.Server on a loopback listener.
type server struct {
	URL  string
	srv  *http.Server
	done chan struct{}
}

// listen serves h on a fresh loopback port.
func listen(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loopback listener: %w", err)
	}
	s := &server{URL: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("server %s: %v\n", s.URL, err)
		}
	}()
	return s, nil
}

// Close stops the server and waits for its serve loop to return.
func (s *server) Close() {
	s.srv.Close()
	<-s.done
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxConnsPerHost = conns
	tr.MaxIdleConnsPerHost = conns
	tr.DisableCompression = true
	return &http.Client{Transport: tr}
}

// sample is one completed request of a closed loop.
type sample struct {
	Idx    int           // index into the sequence
	Done   time.Duration // completion time since the loop started
	Ms     float64       // client round-trip time
	Status int           // 0 on a transport error
	Err    string        // transport error, if any
	Body   []byte        // nil when the body matched a known-good one
}

// loop is a closed-loop load generator: clients goroutines, each sending
// its next request only after the previous one completed, over one
// HTTP client with as many connections. Requests come from a shared
// cursor over the sequence, so every request is sent exactly once.
type loop struct {
	Base    string
	Seq     []request
	Clients int
	// Stop ends the loop early once passed (the sequence is sized to take
	// about the run length; Stop bounds a much slower program).
	Stop time.Time
	// Halt, when set, ends the loop as soon as it reads true.
	Halt *atomic.Bool
	// Think is how long a client waits after an answer before sending its
	// next request.
	Think time.Duration
	// Good maps a request to the one response body already checked
	// against its reference; a byte-identical response skips the full
	// comparison and its body is not kept.
	Good   map[request][]byte
	Tracer *tracer
	// Before and After run around each request on the client goroutine
	// (ingest pins the log snapshot a response may have been served from).
	Before func(i int) any
	After  func(i int, tag any, s *sample)
}

// run drives the loop to the end of the sequence, Stop or Halt and returns
// the samples in completion order, with the wall time from first send to
// last completion.
func (l *loop) run() ([]sample, time.Duration) {
	cl := newClient(l.Clients)
	defer cl.CloseIdleConnections()
	var (
		next atomic.Int64
		mu   sync.Mutex
		all  []sample
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < l.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for {
				i := int(next.Add(1) - 1)
				if i >= len(l.Seq) || time.Now().After(l.Stop) || (l.Halt != nil && l.Halt.Load()) {
					break
				}
				s := l.one(cl, i)
				s.Done = time.Since(start)
				mine = append(mine, s)
				if l.Think > 0 {
					time.Sleep(l.Think)
				}
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	sort.Slice(all, func(a, b int) bool { return all[a].Done < all[b].Done })
	return all, time.Since(start)
}

func (l *loop) one(cl *http.Client, i int) sample {
	r := l.Seq[i]
	s := sample{Idx: i}
	req, err := http.NewRequest(http.MethodGet, l.Base+r.Path(), nil)
	if err != nil {
		s.Err = err.Error()
		return s
	}
	var tag any
	if l.Before != nil {
		tag = l.Before(i)
	}
	id := l.Tracer.newReq()
	sp := l.Tracer.begin("client.request", r.Kind, id, 0)
	if l.Tracer != nil {
		traceIDs{req: id, span: sp.s.ID}.set(req.Header)
	}
	t0 := time.Now()
	resp, err := cl.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	s.Ms = float64(time.Since(t0)) / float64(time.Millisecond)
	sp.end()
	if err != nil {
		s.Err = err.Error()
		return s
	}
	s.Status = resp.StatusCode
	if good, ok := l.Good[r]; !ok || !bytes.Equal(good, body) {
		s.Body = body
	}
	if l.After != nil {
		l.After(i, tag, &s)
	}
	return s
}

// tally checks samples against references and counts failures: a
// transport error, a non-200 or a body that differs from its reference.
// check returns nil when body answers request r correctly.
func tally(samples []sample, seq []request, check func(r request, s *sample) error) (failed int64, firstErr error) {
	for i := range samples {
		s := &samples[i]
		var err error
		switch {
		case s.Err != "":
			err = errors.New(s.Err)
		case s.Status != http.StatusOK:
			err = fmt.Errorf("status %d: %s", s.Status, bytes.TrimSpace(s.Body))
		case s.Body != nil:
			err = check(seq[s.Idx], s)
		}
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", seq[s.Idx].Path(), err)
			}
		}
	}
	return failed, firstErr
}

// figures computes the load figures of samples in completion order.
func figures(samples []sample) (loadFigures, error) {
	done := make([]time.Duration, len(samples))
	ms := make([]float64, len(samples))
	for i, s := range samples {
		done[i], ms[i] = s.Done, s.Ms
	}
	return sliceLoad(done, ms)
}
