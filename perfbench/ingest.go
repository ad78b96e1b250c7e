package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gdeltmine/internal/convert"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/serve"
	"gdeltmine/internal/shard"
	"gdeltmine/internal/store"
	"gdeltmine/internal/stream"
)

const (
	// ingestTicks is how many feed ticks a pass folds: enough that the
	// p90 freshness has more than ten samples beyond it.
	ingestTicks = 100
	// ingestShards is K of the log at set-up: the prefix in K-1 equal
	// shards and an empty tail shard from the first live tick on, the only
	// shard appends may extend.
	ingestShards = 4
	// ingestPoll is the poll loop's sleep between polls.
	ingestPoll = 5 * time.Millisecond
	// ingestSeqLen is the length of the query client's seeded cycle; the
	// client stops when the last tick is visible, long before the end.
	ingestSeqLen = 1 << 16
	// ingestHeadroom is how far the log's world reaches past the last
	// tick, in capture intervals: 64 ticks, the least gdeltstream -live
	// gives. A tail whose rows reach the end of the world cannot be
	// sealed, so without it the last ticks would never become durable.
	ingestHeadroom = 64 * ingestTickIntervals
	// ingestThink is the query client's pause between answers: a user
	// reading results, not a saturating loop that would starve the fold.
	ingestThink = time.Millisecond
)

// ingestInputs is what every pass of an ingest run shares.
type ingestInputs struct {
	seconds int
	corpus  *gen.Corpus
	full    string // the whole raw dataset, served as the feed
	prefix  string // the chunks before the first live tick
	cut     int    // feed tick index of the first live tick
	ticks   []tickSpan
	seq     []request
}

// tickSpan is one live tick's capture-interval range [Lo, Hi) in the
// corpus.
type tickSpan struct{ Lo, Hi int32 }

// ingestState is one set-up: the durable log over the prefix and the
// live server in front of it.
type ingestState struct {
	dir        string
	lg         *shard.Log
	srv        *server
	prefixRows int
}

func runIngest(c config) (*pass, error) {
	cfg := ingestConfig()
	sp := spanOf(cfg)
	in := &ingestInputs{seconds: c.seconds, full: filepath.Join(c.dir, "raw"), prefix: filepath.Join(c.dir, "prefix")}
	var err error
	if in.corpus, err = writeInputs(cfg, in.full); err != nil {
		return nil, err
	}
	if err := addHeadroom(in.full, ingestHeadroom); err != nil {
		return nil, err
	}
	fs, err := stream.NewFeedServer(in.full, nil)
	if err != nil {
		return nil, err
	}
	if fs.Ticks() <= ingestTicks {
		return nil, fmt.Errorf("ingest corpus has %d ticks, need more than %d", fs.Ticks(), ingestTicks)
	}
	in.cut = fs.Ticks() - ingestTicks
	if err := writePrefix(in.full, in.prefix, fs.TickTS(in.cut)); err != nil {
		return nil, fmt.Errorf("writing prefix: %w", err)
	}
	base := cfg.Start.IntervalIndex()
	for i := 0; i < ingestTicks; i++ {
		lo := int32(fs.TickTS(in.cut+i).IntervalIndex() - base)
		in.ticks = append(in.ticks, tickSpan{Lo: lo, Hi: lo + ingestTickIntervals})
	}
	in.seq = ingestSequence(c.seed, sp, ingestSeqLen)
	phase("inputs written")

	var setups []setupTiming
	var st *ingestState
	for rep := 0; rep < setupReps; rep++ {
		if st != nil {
			st.close()
			st = nil
		}
		runtime.GC()
		t, s, err := setupIngest(in, filepath.Join(c.dir, "log"+strconv.Itoa(rep)), nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, t)
		st = s
	}
	heap := heapMB()

	conv, split, total := setupSplits(setups)

	p := newPass()
	untraced, fig, err := ingestPass(in, st, nil, p)
	st.close()
	if err != nil {
		return nil, err
	}
	phase("ingested %d ticks", ingestTicks)
	p.e2e["setup_s"] = metric{median(total), "s"}
	p.e2e["heap_mb"] = metric{heap, "MiB"}
	untraced.e2e(p, c.workload)
	p.report["setup_s_samples"] = total
	p.report["stream_rows_per_s"] = fig.rowsPerS
	p.report["freshness_ms"] = fig.fresh
	p.report["feed_lag_ms"] = map[string]float64{"p50": fig.lagP50, "max": fig.lagMax}
	p.report["late_ticks"] = fig.lateTicks
	p.report["ticks"] = ingestTicks
	p.report["tick_period_ms"] = float64(tickPeriod(c.seconds)) / 1e6
	p.report["prefix_rows"] = st.prefixRows
	p.report["live_rows"] = fig.rows
	p.report["unverified_straddles"] = fig.unverified
	p.report["failed_by_kind"] = fig.failedByKind
	if !c.trace {
		return p, nil
	}

	tr := newTracer()
	_, s, err := setupIngest(in, filepath.Join(c.dir, "log-traced"), tr)
	if err != nil {
		return nil, err
	}
	tp := newPass()
	traced, tli, err := ingestPass(in, s, tr, tp)
	s.close()
	if err != nil {
		return nil, err
	}
	p.attempted += tp.attempted
	p.failed += tp.failed
	phase("traced ingest")
	probe, err := appendProbe(in, filepath.Join(c.dir, "log-probe"), tr)
	if err != nil {
		return nil, err
	}
	phase("append probe")
	lp := &layerProbe{tr: tr, view: tli.final.View(), db: tli.batch}
	if err := lp.replay(distinct(in.seq)); err != nil {
		return nil, err
	}
	if err := lp.panel(); err != nil {
		return nil, err
	}
	p.spans = tr.Spans()
	probe.ticks = ingestTicks
	probe.rowsPerS = tli.rowsPerS
	probe.freshP50, probe.freshP90 = tli.fresh.P50, tli.fresh.Tail
	probe.feedLagMs = tli.lagMax
	probe.lateTicks = float64(tli.lateTicks)
	probe.convertS, probe.splitS = median(conv), median(split)
	probe.heapBytesPerRow = heap * (1 << 20) / float64(st.prefixRows)
	probe.overheadPct = 100 * (traced.load.P50/untraced.load.P50 - 1)
	p.layers, err = layerMetrics(p.spans, traced, lp, probe)
	return p, err
}

// split shards the prefix build for the log: K-1 equal prefix shards and
// the tail from the first live tick to the end of the world.
func (in *ingestInputs) split(db *store.DB) (*shard.DB, error) {
	cut := in.ticks[0].Lo
	bounds := make([]int32, 0, ingestShards+1)
	for i := 0; i < ingestShards; i++ {
		bounds = append(bounds, int32(int64(cut)*int64(i)/(ingestShards-1)))
	}
	return shard.SplitAt(db, append(bounds, db.Meta.Intervals))
}

// tickPeriod is the feed schedule: the live ticks spread over the run.
func tickPeriod(seconds int) time.Duration {
	return time.Duration(seconds) * time.Second / ingestTicks
}

// setupIngest is the timed set-up of ingest: the prefix's raw files to the
// first answered request, through conversion, the K-way split, a durable
// shard.CreateLog and the live server.
func setupIngest(in *ingestInputs, dir string, tr *tracer) (setupTiming, *ingestState, error) {
	var t setupTiming
	t0 := time.Now()
	res, err := convert.FromRawDir(in.prefix)
	if err != nil {
		return t, nil, fmt.Errorf("convert prefix: %w", err)
	}
	t1 := time.Now()
	sdb, err := in.split(res.DB)
	if err != nil {
		return t, nil, err
	}
	t2 := time.Now()
	lg, err := shard.CreateLog(dir, sdb)
	if err != nil {
		return t, nil, fmt.Errorf("create log: %w", err)
	}
	srv, err := listen(traceHandler(tr, "serve.handler", serve.NewLive(lg, serve.Config{})))
	if err != nil {
		return t, nil, err
	}
	st := &ingestState{dir: dir, lg: lg, srv: srv, prefixRows: res.DB.Mentions.Len()}
	cl := newClient(1)
	defer cl.CloseIdleConnections()
	if _, err := get(cl, srv.URL+"/api/v1/stats"); err != nil {
		st.close()
		return t, nil, fmt.Errorf("first request: %w", err)
	}
	t.Convert, t.Split, t.Total = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), time.Since(t0).Seconds()
	return t, st, nil
}

func (st *ingestState) close() { st.srv.Close() }

// ingestFigures are a pass's ingest-side measurements.
type ingestFigures struct {
	rows, lateTicks, unverified int
	failedByKind                map[string]int
	rowsPerS                    float64
	fresh                       dist
	lagP50, lagMax              float64
	final                       *shard.DB // live world after the final seal
	batch                       *store.DB // the same rows built in one batch
}

// pinned is what the ingest client records around a request: the log
// snapshots current before sending and after the answer arrived. The
// server answered from one of them or from one published in between.
type pinned struct{ before, after *shard.DB }

type answerKey struct {
	r      request
	pin    pinned
	status int
	body   string
}

// ingestPass folds the live ticks on the feed schedule while one closed-loop
// client queries the live server, then checks every answer, the end state
// against a batch build, and a reload of the log directory.
func ingestPass(in *ingestInputs, st *ingestState, tr *tracer, p *pass) (*loadRun, *ingestFigures, error) {
	fig := &ingestFigures{failedByKind: map[string]int{}}
	fs, err := stream.NewFeedServer(in.full, nil)
	if err != nil {
		return nil, nil, err
	}
	for fs.Pos() < in.cut-1 {
		fs.Advance()
	}
	feed, err := listen(fs)
	if err != nil {
		return nil, nil, err
	}
	defer feed.Close()
	feedHTTP := newClient(2)
	defer feedHTTP.CloseIdleConnections()
	if tr != nil {
		feedHTTP.Transport = timedTransport{t: tr, name: "stream.fetch", base: feedHTTP.Transport}
	}
	start := fs.TickTS(in.cut)
	mon := stream.NewMonitor(start, stream.Config{ChunkIntervals: ingestTickIntervals, GraceIntervals: ingestTickIntervals})
	runner := stream.NewLiveRunner(&stream.FeedClient{Base: feed.URL, HTTP: feedHTTP}, mon, st.lg, start,
		stream.LiveConfig{TickIntervals: ingestTickIntervals})
	comp := stream.NewCompactor(st.lg, stream.CompactorConfig{})

	// The query client: one closed loop until the last tick is visible.
	var (
		amu     sync.Mutex
		answers = map[answerKey]int{}
		halt    atomic.Bool
	)
	l := &loop{
		Base: st.srv.URL, Seq: in.seq, Clients: 1, Tracer: tr, Think: ingestThink,
		Stop:   time.Now().Add(time.Hour),
		Halt:   &halt,
		Before: func(int) any { return st.lg.Snapshot() },
		After: func(i int, tag any, s *sample) {
			k := answerKey{r: in.seq[i], pin: pinned{tag.(*shard.DB), st.lg.Snapshot()}, status: s.Status, body: string(s.Body)}
			amu.Lock()
			answers[k]++
			amu.Unlock()
			s.Body = nil
		},
	}
	runtime.GC()
	before := readCounters()
	var (
		samples []sample
		wall    time.Duration
		clientW sync.WaitGroup
	)
	clientW.Add(1)
	go func() {
		defer clientW.Done()
		samples, wall = l.run()
	}()

	// The feed: one tick published per period, open loop.
	period := tickPeriod(in.seconds)
	t0 := time.Now()
	due := func(i int) time.Time { return t0.Add(time.Duration(i+1) * period) }
	lags := make([]float64, ingestTicks)
	var pubW sync.WaitGroup
	pubW.Add(1)
	go func() {
		defer pubW.Done()
		for i := 0; i < ingestTicks; i++ {
			time.Sleep(time.Until(due(i)))
			fs.Advance()
			lags[i] = float64(time.Since(due(i))) / 1e6
		}
	}()

	// The poll loop of gdeltstream -live: poll, compact, repeat.
	ctx := context.Background()
	deadline := due(ingestTicks).Add(60 * time.Second)
	var (
		busy      time.Duration
		fresh     []float64
		visible   int
		prevTicks int
		loopErr   error
	)
	for visible < ingestTicks && loopErr == nil {
		if time.Now().After(deadline) {
			loopErr = fmt.Errorf("ingest: only %d of %d ticks visible by the deadline", visible, ingestTicks)
			break
		}
		sp := tr.begin("ingest.poll", "", 0, 0)
		a := time.Now()
		err := runner.PollOnce(ctx)
		d := time.Since(a)
		stats := runner.Stats()
		folded := stats.Ticks > prevTicks
		if folded {
			busy += d
			sp.s.Attr = "folded"
		}
		sp.end()
		if err != nil {
			p.fail(fmt.Errorf("poll: %w", err))
		}
		sp = tr.begin("ingest.compact", "", 0, 0)
		a = time.Now()
		sealed, err := comp.RunOnce()
		if sealed {
			busy += time.Since(a)
			sp.s.Attr = "sealed"
		}
		sp.end()
		if err != nil {
			loopErr = fmt.Errorf("compactor: %w", err)
			break
		}
		if folded {
			prevTicks = stats.Ticks
			// Visible to a query on a fresh snapshot: the snapshot holds
			// every folded row.
			snap := st.lg.Snapshot()
			if got, want := snapshotRows(snap), st.prefixRows+stats.Mentions; got != want {
				loopErr = fmt.Errorf("ingest: snapshot holds %d mention rows after folding to %d", got, want)
				break
			}
			now := time.Now()
			for ; visible < stats.Ticks && visible < ingestTicks; visible++ {
				fresh = append(fresh, float64(now.Sub(due(visible)))/1e6)
				if now.After(due(visible + 1)) {
					fig.lateTicks++
				}
			}
		}
		time.Sleep(ingestPoll)
	}
	halt.Store(true)
	clientW.Wait()
	pubW.Wait()
	after := readCounters()
	if loopErr != nil {
		return nil, nil, loopErr
	}

	// End state: all ticks folded, none skipped, no ledger gaps.
	stats := runner.Stats()
	p.attempted++
	switch {
	case len(stats.Skipped) > 0:
		p.fail(fmt.Errorf("ingest skipped ticks %v", stats.Skipped))
	case stats.Ticks != ingestTicks:
		p.fail(fmt.Errorf("ingest folded %d ticks, fed %d", stats.Ticks, ingestTicks))
	case len(mon.Gaps()) > 0:
		p.fail(fmt.Errorf("monitor ledger has gaps: %v", mon.Gaps()))
	case mon.Err() != nil:
		p.fail(fmt.Errorf("monitor: %w", mon.Err()))
	}
	fig.rows = stats.Mentions
	fig.rowsPerS = float64(stats.Mentions) / busy.Seconds()
	if fig.fresh, err = summarize(fresh, 0.9); err != nil {
		return nil, nil, fmt.Errorf("freshness: %w", err)
	}
	fig.lagP50 = median(lags)
	for _, v := range lags {
		fig.lagMax = max(fig.lagMax, v)
	}

	phase("fed %d ticks", ingestTicks)
	// Every answer against the reference on the snapshot it was served
	// from (single worker, uncached).
	type snapReq struct {
		s *shard.DB
		r request
	}
	var need []snapReq
	seen := map[snapReq]bool{}
	for k := range answers {
		for _, s := range []*shard.DB{k.pin.before, k.pin.after} {
			if sr := (snapReq{s, k.r}); !seen[sr] {
				seen[sr] = true
				need = append(need, sr)
			}
		}
	}
	refs, err := inParallel(need, runtime.GOMAXPROCS(0), func(sr snapReq) ([]byte, error) {
		return execRef(sr.s.View(), sr.r)
	})
	if err != nil {
		return nil, nil, err
	}
	ref := func(s *shard.DB, r request) []byte { return refs[snapReq{s, r}] }
	run := &loadRun{wall: wall, counters: after.since(before)}
	run.attempted = int64(len(samples))
	for _, s := range samples {
		if s.Err != "" {
			run.failed++
			if run.firstErr == nil {
				run.firstErr = errors.New(s.Err)
			}
		}
	}
	for k, n := range answers {
		err := checkPinned(k, ref)
		if errors.Is(err, errStraddle) {
			fig.unverified += n
			continue
		}
		if err != nil {
			run.failed += int64(n)
			fig.failedByKind[k.r.Kind] += n
			if run.firstErr == nil {
				run.firstErr = fmt.Errorf("%s: %w", k.r.Path(), err)
			}
		}
	}
	run.ok = run.attempted - run.failed
	if run.load, err = figures(samples); err != nil {
		return nil, nil, fmt.Errorf("latency: %w", err)
	}
	p.absorb(run)

	// Seal the tail, then the live world and a reload of its directory must
	// both answer like a batch build of the same rows.
	if _, err := st.lg.Seal(); err != nil {
		return nil, nil, fmt.Errorf("final seal: %w", err)
	}
	p.attempted++
	if n := st.lg.TailRows(); n > 0 {
		p.fail(fmt.Errorf("final seal left %d mention rows in memory only", n))
	}
	fig.final = st.lg.Snapshot()
	res, err := convert.FromRawDir(in.full)
	if err != nil {
		return nil, nil, fmt.Errorf("batch build: %w", err)
	}
	batch, err := shard.Split(res.DB, 1)
	if err != nil {
		return nil, nil, err
	}
	fig.batch = res.DB
	reloaded, err := shard.OpenLog(st.dir)
	if err != nil {
		p.attempted++
		p.fail(fmt.Errorf("reopening the log: %w", err))
		return run, fig, nil
	}
	for _, r := range distinct(in.seq) {
		want, err := execRef(batch.View(), r)
		if err != nil {
			return nil, nil, fmt.Errorf("batch %s: %w", r.Path(), err)
		}
		for _, w := range []struct {
			name string
			db   *shard.DB
		}{{"live log", fig.final}, {"reopened log", reloaded.Snapshot()}} {
			p.attempted++
			got, err := execRef(w.db.View(), r)
			if err == nil {
				err = sameJSON(got, want)
			}
			if err != nil {
				p.fail(fmt.Errorf("%s %s differs from the batch build: %w", w.name, r.Path(), err))
			}
		}
	}
	return run, fig, nil
}

// errStraddle marks an answer whose snapshot changed more than once while
// it was in flight, so it matches neither end.
var errStraddle = errors.New("answer straddled a snapshot change")

// checkPinned checks one distinct answer against the references of the
// snapshots current before and after it.
func checkPinned(k answerKey, ref func(*shard.DB, request) []byte) error {
	if k.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", k.status, k.body)
	}
	err := sameJSON([]byte(k.body), ref(k.pin.before, k.r))
	if err == nil || k.pin.after == k.pin.before {
		return err
	}
	if sameJSON([]byte(k.body), ref(k.pin.after, k.r)) == nil {
		return nil
	}
	return errStraddle
}

// snapshotRows counts the mention rows a world holds.
func snapshotRows(s *shard.DB) int {
	n := 0
	for i := 0; i < s.K(); i++ {
		n += s.Part(i).Mentions.Len()
	}
	return n
}

// appendProbe replays the live ticks straight into a fresh durable log,
// timing every shard.Log.Append against the tail size it starts from and
// every seal the default compactor makes, and counting the bytes the log
// directory takes in per appended row.
func appendProbe(in *ingestInputs, dir string, tr *tracer) (layerInputs, error) {
	var li layerInputs
	res, err := convert.FromRawDir(in.prefix)
	if err != nil {
		return li, err
	}
	sdb, err := in.split(res.DB)
	if err != nil {
		return li, err
	}
	lg, err := shard.CreateLog(dir, sdb)
	if err != nil {
		return li, err
	}
	comp := stream.NewCompactor(lg, stream.CompactorConfig{})
	files, err := dirFiles(dir)
	if err != nil {
		return li, err
	}
	c := in.corpus
	order := eventsByFirstMention(c)
	var (
		xs, ys, seals []float64
		written       int64
		rows          int
		ev            int
	)
	for ev < len(order) && c.Events[order[ev]].FirstMention < in.ticks[0].Lo {
		ev++
	}
	for _, t := range in.ticks {
		var evs []gdelt.Event
		for ; ev < len(order) && c.Events[order[ev]].FirstMention < t.Hi; ev++ {
			evs = append(evs, c.EventRecord(int(order[ev])))
		}
		var mns []gdelt.Mention
		for j := range c.Mentions {
			if iv := c.Mentions[j].Interval; iv >= t.Lo && iv < t.Hi {
				mns = append(mns, c.MentionRecord(j))
			}
		}
		tail := lg.TailRows()
		sp := tr.begin("shard.append", strconv.Itoa(tail), 0, 0)
		a := time.Now()
		if _, err := lg.Append(evs, mns); err != nil {
			return li, fmt.Errorf("append: %w", err)
		}
		d := time.Since(a)
		sp.end()
		xs = append(xs, float64(tail)/1000)
		ys = append(ys, float64(d)/1e3)
		rows += len(mns)
		sp = tr.begin("shard.seal", "", 0, 0)
		a = time.Now()
		sealed, err := comp.RunOnce()
		if err != nil {
			return li, fmt.Errorf("seal: %w", err)
		}
		if sealed {
			seals = append(seals, float64(time.Since(a))/1e6)
			sp.end()
		}
		now, err := dirFiles(dir)
		if err != nil {
			return li, err
		}
		written += newBytes(files, now)
		files = now
	}
	li.appendMs = median(ys) / 1e3
	li.appendSlope = slope(xs, ys)
	li.sealMs = median(seals)
	li.seals = float64(len(seals))
	li.sealBytesPerRow = float64(written) / float64(rows)
	return li, nil
}

// eventsByFirstMention orders event indexes as the raw files carry them.
func eventsByFirstMention(c *gen.Corpus) []int32 {
	order := make([]int32, len(c.Events))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		return c.Events[order[a]].FirstMention < c.Events[order[b]].FirstMention
	})
	return order
}

// fileStamp identifies one version of a file.
type fileStamp struct {
	size int64
	mod  time.Time
}

func dirFiles(dir string) (map[string]fileStamp, error) {
	out := map[string]fileStamp{}
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		out[p] = fileStamp{info.Size(), info.ModTime()}
		return nil
	})
	return out, err
}

// newBytes sums the sizes of files that are new or rewritten in now.
func newBytes(before, now map[string]fileStamp) int64 {
	var n int64
	for p, s := range now {
		if b, ok := before[p]; !ok || b != s {
			n += s.size
		}
	}
	return n
}
