package main

import (
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"gdeltmine/internal/convert"
	"gdeltmine/internal/router"
	"gdeltmine/internal/serve"
	"gdeltmine/internal/shard"
	"gdeltmine/internal/store"
)

const (
	// servingShards is K of the scan and hot servers.
	servingShards = 4
	// setupReps is how many times each run sets up; setup_s is the median.
	setupReps = 3
	// scanRate and hotRate size the request sequences: rate x seconds
	// requests, about what a 2-CPU host answers in that time. The sequence
	// length, not the clock, fixes the work of a run.
	scanRate = 200
	hotRate  = 3300
	// hotZipf is the skew of the hot key draw.
	hotZipf = 1.1
	// replayCap bounds how many distinct requests the traced replay times.
	replayCap = 300
)

// stack is the server side of scan (one replica, queried directly) or hot
// (two replicas behind a router), each on its own loopback listener.
type stack struct {
	front   string
	servers []*server
	router  *router.Router
}

// newStack starts replicas serve.NewSharded servers over sdb, each with its
// own default-size result cache, and with two or more a router in front.
// With a tracer every handler is wrapped in a span.
func newStack(sdb *shard.DB, replicas int, tr *tracer) (*stack, error) {
	st := &stack{}
	var reps []router.Replica
	for i := 0; i < replicas; i++ {
		s, err := listen(traceHandler(tr, "serve.handler", serve.NewSharded(sdb, serve.Config{})))
		if err != nil {
			st.Close()
			return nil, err
		}
		st.servers = append(st.servers, s)
		reps = append(reps, router.Replica{ID: fmt.Sprintf("r%d", i), URL: s.URL})
	}
	if replicas == 1 {
		st.front = st.servers[0].URL
		return st, nil
	}
	base := http.DefaultTransport.(*http.Transport).Clone()
	base.MaxIdleConnsPerHost = 16
	var upstream http.RoundTripper = base
	if tr != nil {
		upstream = traceTransport{base: base}
	}
	rt, err := router.New(router.Config{Replicas: reps, Shards: sdb.K(), Transport: upstream})
	if err != nil {
		st.Close()
		return nil, err
	}
	st.router = rt
	s, err := listen(traceHandler(tr, "router.handler", rt))
	if err != nil {
		st.Close()
		return nil, err
	}
	st.servers = append(st.servers, s)
	st.front = s.URL
	return st, nil
}

// Close stops the router and every listener.
func (st *stack) Close() {
	for _, s := range st.servers {
		s.Close()
	}
	if st.router != nil {
		st.router.Close()
	}
}

// get fetches base+path and returns the body of a 200.
func get(cl *http.Client, url string) ([]byte, error) {
	resp, err := cl.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}

// setupTiming splits one set-up.
type setupTiming struct {
	Convert, Split, Total float64 // seconds
}

// setupServing is the timed set-up of scan and hot: raw files on disk to
// the first answered request, through conversion, the K-way split and the
// server stack.
func setupServing(raw string, replicas int) (setupTiming, *store.DB, *shard.DB, error) {
	var t setupTiming
	t0 := time.Now()
	res, err := convert.FromRawDir(raw)
	if err != nil {
		return t, nil, nil, fmt.Errorf("convert: %w", err)
	}
	t1 := time.Now()
	sdb, err := shard.Split(res.DB, servingShards)
	if err != nil {
		return t, nil, nil, fmt.Errorf("split: %w", err)
	}
	t2 := time.Now()
	st, err := newStack(sdb, replicas, nil)
	if err != nil {
		return t, nil, nil, err
	}
	defer st.Close()
	cl := newClient(1)
	defer cl.CloseIdleConnections()
	if _, err := get(cl, st.front+"/api/v1/stats"); err != nil {
		return t, nil, nil, fmt.Errorf("first request: %w", err)
	}
	t3 := time.Now()
	t.Convert, t.Split, t.Total = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t0).Seconds()
	return t, res.DB, sdb, nil
}

// setupSplits separates set-up timings into conversion, split and total.
func setupSplits(ts []setupTiming) (conv, split, total []float64) {
	for _, t := range ts {
		conv = append(conv, t.Convert)
		split = append(split, t.Split)
		total = append(total, t.Total)
	}
	return conv, split, total
}

// heapMB is the live heap after a GC, in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// servingInputs is what both passes of a scan or hot run share.
type servingInputs struct {
	hot      bool
	sdb      *shard.DB
	seq      []request
	keys     []request // distinct requests, first-seen order
	refs     map[request][]byte
	replicas int
	clients  int
}

func runServing(c config, hot bool) (*pass, error) {
	cfg := servingConfig()
	sp := spanOf(cfg)
	raw := filepath.Join(c.dir, "raw")
	if _, err := writeInputs(cfg, raw); err != nil {
		return nil, err
	}
	phase("inputs written")
	// scan saturates the host with GOMAXPROCS clients; its requests cost
	// milliseconds of kernel work, so queueing adds little to their tail.
	// hot's cache hits cost a quarter of a millisecond, and a saturating
	// loop would make their p99 track the host's spare capacity rather
	// than the request path, so hot runs one client.
	in := &servingInputs{hot: hot, replicas: 1, clients: runtime.GOMAXPROCS(0)}
	if hot {
		in.replicas, in.clients = 2, 1
	}

	var (
		setups []setupTiming
		db     *store.DB
	)
	for i := 0; i < setupReps; i++ {
		db, in.sdb = nil, nil
		runtime.GC()
		t, d, s, err := setupServing(raw, in.replicas)
		if err != nil {
			return nil, err
		}
		setups = append(setups, t)
		db, in.sdb = d, s
	}
	heap := heapMB()
	phase("set up %d times", setupReps)

	if hot {
		in.keys = hotKeys(c.seed, sp)
		for _, i := range zipfSequence(c.seed, len(in.keys), hotRate*c.seconds, hotZipf) {
			in.seq = append(in.seq, in.keys[i])
		}
	} else {
		in.seq = scanSequence(c.seed, sp, scanRate*c.seconds)
		in.keys = distinct(in.seq)
	}

	p := newPass()
	// Cross-check the reference path against the row store, then compute
	// the reference answer of every distinct request.
	p.attempted++
	if err := crossCheckRowStore(db); err != nil {
		p.fail(fmt.Errorf("row store cross-check: %w", err))
	}
	refs, err := references(db, in.keys, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	in.refs = refs
	phase("references for %d requests", len(in.keys))

	untraced, err := measureServing(c, in, nil)
	if err != nil {
		return nil, err
	}
	phase("measured %d requests", untraced.attempted)
	p.absorb(untraced)

	conv, split, total := setupSplits(setups)
	rows := float64(db.Mentions.Len())
	p.e2e["setup_s"] = metric{median(total), "s"}
	p.e2e["heap_mb"] = metric{heap, "MiB"}
	untraced.e2e(p, c.workload)
	p.report["setup_s_samples"] = total
	p.report["mention_rows"] = rows
	p.report["distinct_requests"] = len(in.keys)
	p.report["requests"] = len(in.seq)

	if !c.trace {
		return p, nil
	}
	tr := newTracer()
	traced, err := measureServing(c, in, tr)
	if err != nil {
		return nil, err
	}
	p.attempted += traced.attempted
	p.failed += traced.failed
	phase("traced %d requests", traced.attempted)
	lp := &layerProbe{tr: tr, view: in.sdb.View(), db: db}
	if err := lp.replay(in.keys); err != nil {
		return nil, err
	}
	if err := lp.panel(); err != nil {
		return nil, err
	}
	phase("layer probes")
	p.spans = tr.Spans()
	p.layers, err = layerMetrics(p.spans, traced, lp, layerInputs{
		convertS: median(conv), splitS: median(split),
		heapBytesPerRow: heap * (1 << 20) / rows,
		overheadPct:     100 * (traced.load.P50/untraced.load.P50 - 1),
	})
	return p, err
}

// loadRun is one closed-loop measurement.
type loadRun struct {
	attempted, failed int64
	firstErr          error
	ok                int64
	wall              time.Duration
	load              loadFigures
	counters          counters
}

// absorb adds a run's operation counts to the pass.
func (p *pass) absorb(r *loadRun) {
	p.attempted += r.attempted
	p.failed += r.failed
	if r.firstErr != nil && p.firstErr == nil {
		p.firstErr = r.firstErr
	}
}

// e2e writes the run's load metrics into the pass.
func (r *loadRun) e2e(p *pass, workload string) {
	p.e2e["qps"] = metric{r.load.QPS * float64(r.ok) / float64(r.load.All.N), "1/s"}
	p.e2e["latency_p50_ms"] = metric{r.load.P50, "ms"}
	p.e2e["latency_p99_ms"] = metric{r.load.P99, "ms"}
	p.report["load"] = r.load
	p.report["wall_s"] = r.wall.Seconds()
	exact, varies := r.counters.split(workload)
	p.report["counters_exact"] = exact
	p.report["counters_vary"] = varies
}

// measureServing runs the sequence once against a fresh server stack (so
// the scan cache starts empty), warming every hot key first.
func measureServing(c config, in *servingInputs, tr *tracer) (*loadRun, error) {
	st, err := newStack(in.sdb, in.replicas, tr)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	r := &loadRun{}
	good := map[request][]byte{}
	if in.hot {
		// Warm every key on both replicas and through the router; these
		// answers are checked like the timed ones.
		cl := newClient(1)
		bases := []string{st.front}
		for _, s := range st.servers[:in.replicas] {
			bases = append(bases, s.URL)
		}
		for _, k := range in.keys {
			for _, b := range bases {
				r.attempted++
				body, err := get(cl, b+k.Path())
				if err == nil {
					err = sameJSON(body, in.refs[k])
				}
				if err != nil {
					r.failed++
					if r.firstErr == nil {
						r.firstErr = fmt.Errorf("warming %s: %w", k.Path(), err)
					}
					continue
				}
				good[k] = body
			}
		}
		cl.CloseIdleConnections()
	}
	l := &loop{
		Base:    st.front,
		Seq:     in.seq,
		Clients: in.clients,
		Stop:    time.Now().Add(time.Duration(3*c.seconds) * time.Second),
		Good:    good,
		Tracer:  tr,
	}
	// Collect the set-up's and the references' garbage now, not in the
	// first seconds of the timed loop.
	runtime.GC()
	before := readCounters()
	samples, wall := l.run()
	r.wall, r.counters = wall, readCounters().since(before)
	failed, firstErr := tally(samples, in.seq, func(req request, s *sample) error {
		return sameJSON(s.Body, in.refs[req])
	})
	r.ok = int64(len(samples)) - failed
	r.attempted += int64(len(samples))
	r.failed += failed
	if r.firstErr == nil {
		r.firstErr = firstErr
	}
	if r.load, err = figures(samples); err != nil {
		return nil, fmt.Errorf("latency: %w", err)
	}
	return r, nil
}
