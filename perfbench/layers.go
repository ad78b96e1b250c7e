package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"gdeltmine/internal/baseline"
	"gdeltmine/internal/qcache"
	"gdeltmine/internal/qlang"
	"gdeltmine/internal/registry"
	"gdeltmine/internal/shard"
	"gdeltmine/internal/store"
)

// probeReps is how many times each panel probe repeats; the median counts.
const probeReps = 3

// layerProbe times calls into the layers' public functions directly, from
// the benchmark's side, on the same requests the closed loop sent: the
// parts of a request that happen inside the server's handler and cannot
// be timed over HTTP.
type layerProbe struct {
	tr   *tracer
	view *shard.View
	db   *store.DB // monolith for the row-store comparison; nil skips it

	respBytes  []float64
	skew       float64
	speedup    float64
	vsRowStore float64
}

// replay runs up to replayCap distinct requests through the layers one
// call at a time, as the server would: registry parse, qlang parse, the
// uncached sharded run, a cache miss then a timed hit, and the JSON encode.
func (lp *layerProbe) replay(keys []request) error {
	if len(keys) > replayCap {
		keys = keys[:replayCap]
	}
	x := &registry.Executor{Cache: qcache.New(qcache.DefaultMaxBytes)}
	part0 := lp.view.DB().Part(0)
	for _, r := range keys {
		id := lp.tr.newReq()
		root := lp.tr.begin("replay", r.Kind, id, 0)
		sp := lp.tr.begin("registry.parse", r.Kind, id, root.s.ID)
		d, ok := registry.Lookup(r.Kind)
		if !ok {
			return fmt.Errorf("replay: unknown kind %q", r.Kind)
		}
		q := r.Values()
		p, err := d.ParseURLValues(q)
		if err != nil {
			return fmt.Errorf("replay %s: %w", r.Path(), err)
		}
		v, err := registry.DeriveView(lp.view.WithKind(d.Kind), func(name string) []string { return q[name] })
		if err != nil {
			return fmt.Errorf("replay %s: %w", r.Path(), err)
		}
		sp.end()
		if where := q.Get("where"); where != "" {
			sp = lp.tr.begin("qlang.parse", r.Kind, id, root.s.ID)
			if _, err := qlang.Parse(where); err != nil {
				return fmt.Errorf("replay %s: %w", r.Path(), err)
			}
			if _, err := qlang.Compile(part0, where); err != nil {
				return fmt.Errorf("replay %s: %w", r.Path(), err)
			}
			sp.end()
		}
		sp = lp.tr.begin("shard.run", d.Kind, id, root.s.ID)
		res, err := d.RunSharded(v, p)
		sp.end()
		if err != nil {
			return fmt.Errorf("replay %s: %w", r.Path(), err)
		}
		if _, out, err := x.ExecuteSharded(d, v, p); err != nil || out != qcache.Miss {
			return fmt.Errorf("replay %s: cold cache answered %v (%v)", r.Path(), out, err)
		}
		sp = lp.tr.begin("qcache.hit", d.Kind, id, root.s.ID)
		_, out, err := x.ExecuteSharded(d, v, p)
		sp.end()
		if err != nil || out != qcache.Hit {
			return fmt.Errorf("replay %s: warm cache answered %v (%v)", r.Path(), out, err)
		}
		sp = lp.tr.begin("serve.encode", d.Kind, id, root.s.ID)
		body, err := encodeJSON(res)
		sp.end()
		if err != nil {
			return fmt.Errorf("replay %s: %w", r.Path(), err)
		}
		lp.respBytes = append(lp.respBytes, float64(len(body)))
		root.end()
	}
	return nil
}

// panelKinds are the benchmark-panel kinds the view can answer.
func (lp *layerProbe) panelKinds() []*registry.Descriptor {
	var out []*registry.Descriptor
	for _, d := range registry.Panel() {
		if !d.NeedsGKG || lp.view.DB().HasGKG() {
			out = append(out, d)
		}
	}
	return out
}

// timePanel runs every panel kind at full range with default parameters on
// v, probeReps times, and returns the median total in seconds.
func (lp *layerProbe) timePanel(v *shard.View, attr string) (float64, error) {
	var totals []float64
	for rep := 0; rep < probeReps; rep++ {
		sp := lp.tr.begin("probe.panel", attr, 0, 0)
		t0 := time.Now()
		for _, d := range lp.panelKinds() {
			p, err := d.ParseParams(func(string) []string { return nil })
			if err != nil {
				return 0, err
			}
			if _, err := d.RunSharded(v.WithKind(d.Kind), p); err != nil {
				return 0, fmt.Errorf("panel %s: %w", d.Kind, err)
			}
		}
		totals = append(totals, time.Since(t0).Seconds())
		sp.end()
	}
	return median(totals), nil
}

// panel measures the fan-out: worker speedup of the whole panel (the
// Fig. 12 shape on this host), per-shard skew, and the row store's
// cross-country time over the engine's.
func (lp *layerProbe) panel() error {
	procs := runtime.GOMAXPROCS(0)
	one, err := lp.timePanel(lp.view.WithWorkers(1), "workers=1")
	if err != nil {
		return err
	}
	all, err := lp.timePanel(lp.view.WithWorkers(procs), fmt.Sprintf("workers=%d", procs))
	if err != nil {
		return err
	}
	lp.speedup = one / all

	k := lp.view.DB().K()
	var maxT, sum float64
	for i := 0; i < k; i++ {
		t, err := lp.timePanel(lp.view.WithShards([]int{i}), fmt.Sprintf("shard=%d", i))
		if err != nil {
			return err
		}
		sum += t
		maxT = max(maxT, t)
	}
	lp.skew = maxT / (sum / float64(k))

	if lp.db == nil {
		return nil
	}
	rs := baseline.NewRowStore(lp.db)
	country := registry.MustLookup("country")
	p, err := country.ParseParams(func(string) []string { return nil })
	if err != nil {
		return err
	}
	var rowT, engT []float64
	for rep := 0; rep < probeReps; rep++ {
		sp := lp.tr.begin("probe.rowstore", "country", 0, 0)
		t0 := time.Now()
		rs.CrossCountry()
		rowT = append(rowT, time.Since(t0).Seconds())
		sp.end()
		sp = lp.tr.begin("probe.engine", "country", 0, 0)
		t0 = time.Now()
		if _, err := country.RunSharded(lp.view.WithKind("country"), p); err != nil {
			return err
		}
		engT = append(engT, time.Since(t0).Seconds())
		sp.end()
	}
	lp.vsRowStore = median(rowT) / median(engT)
	return nil
}

// runKinds are the kinds shard.run_ms is reported for: the scan mix, with
// the two ad-hoc query shapes folded into "query".
func runKinds() []string {
	var out []string
	seen := map[string]bool{}
	for _, k := range scanKinds {
		if strings.HasPrefix(k, "query-") {
			k = "query"
		}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// layerUnits declares every per-layer metric and its unit, in report order.
var layerUnits = []struct{ name, unit string }{
	{"serve.handler_ms_p50", "ms"}, {"serve.handler_ms_p99", "ms"},
	{"serve.transport_us", "us"}, {"serve.encode_us", "us"}, {"serve.resp_bytes", "bytes"},
	{"router.self_us", "us"}, {"router.hedges", "count"}, {"router.retries", "count"},
	{"router.replica_failures", "count"},
	{"registry.parse_us", "us"},
	{"qcache.hit_ratio", "ratio"}, {"qcache.coalesced", "count"}, {"qcache.evictions", "count"},
	{"qcache.hit_us", "us"}, {"qcache.invalidated_per_tick", "count"},
	{"qlang.parse_us", "us"}, {"qlang.plan_pushdown", "count"}, {"qlang.plan_range", "count"},
	{"qlang.plan_scan", "count"},
	{"shard.skew", "ratio"},
	{"engine.rows_scanned_per_query", "rows"}, {"engine.rows_pruned_per_query", "rows"},
	{"engine.planner_rows", "count"}, {"engine.planner_events", "count"}, {"engine.planner_scan", "count"},
	{"engine.vs_rowstore_x", "x"},
	{"parallel.tasks", "count"}, {"parallel.steals", "count"}, {"parallel.parks", "count"},
	{"parallel.speedup", "x"},
	{"stream.rows_per_s", "rows/s"},
	{"stream.fetch_ms", "ms"}, {"stream.poll_ms", "ms"}, {"stream.late_ticks", "count"},
	{"stream.freshness_p50_ms", "ms"}, {"stream.freshness_p90_ms", "ms"}, {"stream.feed_lag_ms", "ms"},
	{"shard.append_ms", "ms"}, {"shard.append_slope_us_per_krow", "us/krow"}, {"shard.seal_ms", "ms"},
	{"shard.seals", "count"}, {"shard.seal_bytes_per_row", "bytes"},
	{"convert.s", "s"}, {"shard.split_s", "s"}, {"store.heap_bytes_per_row", "bytes"},
	{"trace.overhead_pct", "%"},
}

// layerNames lists every per-layer metric a traced run reports.
func layerNames() []string {
	var out []string
	for _, l := range layerUnits {
		out = append(out, l.name)
	}
	for _, k := range runKinds() {
		out = append(out, "shard.run_ms."+k)
	}
	return out
}

// layerInputs are per-layer figures measured outside the span set.
type layerInputs struct {
	convertS, splitS, heapBytesPerRow, overheadPct float64
	// ingest only
	ticks                                    int
	rowsPerS                                 float64
	freshP50, freshP90, feedLagMs, lateTicks float64
	appendMs, appendSlope, sealMs, seals     float64
	sealBytesPerRow                          float64
}

// layerMetrics assembles the per-layer metrics of a traced pass from its
// spans, the closed loop's counter deltas and the probes.
func layerMetrics(spans []Span, run *loadRun, lp *layerProbe, li layerInputs) (map[string]metric, error) {
	self := selfTimes(spans)
	byName := map[string][]float64{}     // durations, ms
	selfByName := map[string][]float64{} // self times, ms
	runByKind := map[string][]float64{}
	for _, s := range spans {
		if s.Req == 0 && strings.HasSuffix(s.Name, ".handler") {
			continue // warm-up and set-up requests, outside the measured loop
		}
		ms := float64(s.Dur()) / 1e6
		byName[s.Name] = append(byName[s.Name], ms)
		selfByName[s.Name] = append(selfByName[s.Name], float64(self[s.ID])/1e6)
		if s.Name == "shard.run" {
			runByKind[s.Attr] = append(runByKind[s.Attr], ms)
		}
		if s.Name == "stream.fetch" && strings.HasSuffix(s.Attr, ".csv") {
			byName["stream.fetch.chunk"] = append(byName["stream.fetch.chunk"], ms)
		}
		if s.Name == "ingest.poll" && s.Attr == "folded" {
			byName["ingest.poll.folded"] = append(byName["ingest.poll.folded"], ms)
		}
	}
	handlerP99, err := percentile(sortedCopy(byName["serve.handler"]), 0.99)
	if err != nil {
		return nil, fmt.Errorf("serve.handler: %w", err)
	}
	c := run.counters
	executed := c["qcache_misses_total"]
	perQuery := func(v float64) float64 {
		if executed == 0 {
			return 0
		}
		return v / executed
	}
	lookups := c["qcache_hits_total"] + c["qcache_misses_total"] + c["qcache_coalesced_total"]
	hitRatio := 0.0
	if lookups > 0 {
		hitRatio = c["qcache_hits_total"] / lookups
	}
	invalidated := 0.0
	if li.ticks > 0 {
		invalidated = c["qcache_invalidated_total"] / float64(li.ticks)
	}
	v := map[string]float64{
		"serve.handler_ms_p50":           median(byName["serve.handler"]),
		"serve.handler_ms_p99":           handlerP99,
		"serve.transport_us":             1e3 * median(selfByName["client.request"]),
		"serve.encode_us":                1e3 * median(byName["serve.encode"]),
		"serve.resp_bytes":               median(lp.respBytes),
		"router.self_us":                 1e3 * median(selfByName["router.handler"]),
		"router.hedges":                  c["router_hedges_total"],
		"router.retries":                 c["router_retries_total"],
		"router.replica_failures":        c["router_replica_failures_total"],
		"registry.parse_us":              1e3 * median(byName["registry.parse"]),
		"qcache.hit_ratio":               hitRatio,
		"qcache.coalesced":               c["qcache_coalesced_total"],
		"qcache.evictions":               c["qcache_evictions_total"],
		"qcache.hit_us":                  1e3 * median(byName["qcache.hit"]),
		"qcache.invalidated_per_tick":    invalidated,
		"qlang.parse_us":                 1e3 * median(byName["qlang.parse"]),
		"qlang.plan_pushdown":            c["qlang_plan_total{path=pushdown}"],
		"qlang.plan_range":               c["qlang_plan_total{path=range}"],
		"qlang.plan_scan":                c["qlang_plan_total{path=scan}"],
		"shard.skew":                     lp.skew,
		"engine.rows_scanned_per_query":  perQuery(c["engine_rows_scanned_total"]),
		"engine.rows_pruned_per_query":   perQuery(c["scan_rows_pruned_total"]),
		"engine.planner_rows":            c["planner_choice_total{path=rows}"],
		"engine.planner_events":          c["planner_choice_total{path=events}"],
		"engine.planner_scan":            c["planner_choice_total{path=scan}"],
		"engine.vs_rowstore_x":           lp.vsRowStore,
		"parallel.tasks":                 c["parallel_pool_tasks_total"],
		"parallel.steals":                c["parallel_pool_steals_total"],
		"parallel.parks":                 c["parallel_pool_parks_total"],
		"parallel.speedup":               lp.speedup,
		"stream.rows_per_s":              li.rowsPerS,
		"stream.fetch_ms":                median(byName["stream.fetch.chunk"]),
		"stream.poll_ms":                 median(byName["ingest.poll.folded"]),
		"stream.late_ticks":              li.lateTicks,
		"stream.freshness_p50_ms":        li.freshP50,
		"stream.freshness_p90_ms":        li.freshP90,
		"stream.feed_lag_ms":             li.feedLagMs,
		"shard.append_ms":                li.appendMs,
		"shard.append_slope_us_per_krow": li.appendSlope,
		"shard.seal_ms":                  li.sealMs,
		"shard.seals":                    li.seals,
		"shard.seal_bytes_per_row":       li.sealBytesPerRow,
		"convert.s":                      li.convertS,
		"shard.split_s":                  li.splitS,
		"store.heap_bytes_per_row":       li.heapBytesPerRow,
		"trace.overhead_pct":             li.overheadPct,
	}
	out := make(map[string]metric, len(layerUnits)+len(runKinds()))
	for _, l := range layerUnits {
		out[l.name] = metric{v[l.name], l.unit}
	}
	for _, k := range runKinds() {
		out["shard.run_ms."+k] = metric{median(runByKind[k]), "ms"}
	}
	return out, nil
}
