package main

import (
	"sort"
	"strings"

	"gdeltmine/internal/obs"
)

// counters is a reading of every obs.Default counter, keyed by name with
// its labels ("qlang_plan_total{path=range}"), plus one label-free total
// per name.
type counters map[string]float64

func readCounters() counters {
	out := counters{}
	for _, m := range obs.Default.Snapshot().Metrics {
		if m.Kind != obs.KindCounter {
			continue
		}
		out[m.Name] += m.Value
		if len(m.Labels) > 0 {
			keys := make([]string, 0, len(m.Labels))
			for k := range m.Labels {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			var b strings.Builder
			b.WriteString(m.Name)
			b.WriteByte('{')
			for i, k := range keys {
				if i > 0 {
					b.WriteByte(',')
				}
				b.WriteString(k + "=" + m.Labels[k])
			}
			b.WriteByte('}')
			out[b.String()] += m.Value
		}
	}
	return out
}

// since returns the nonzero changes from before to c.
func (c counters) since(before counters) counters {
	out := counters{}
	for k, v := range c {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// variesWithConcurrency names the counters whose deltas depend on how
// goroutines interleave: work stealing and parking, pool task splits,
// single-flight coalescing. The rest repeat exactly for a fixed request
// sequence on scan and hot.
var variesWithConcurrency = map[string]bool{
	"parallel_pool_steals_total":       true,
	"parallel_pool_parks_total":        true,
	"parallel_pool_tasks_total":        true,
	"parallel_pool_busy_nanos_total":   true,
	"parallel_pool_builds_total":       true,
	"parallel_grains_total":            true,
	"parallel_worker_cache_hits_total": true,
	"parallel_pool_gets_total":         true,
	"parallel_pool_allocs_total":       true,
	"qcache_coalesced_total":           true,
}

// ingestExact names the counters that repeat on ingest: what the feed
// delivers. Everything else there depends on where requests and polls
// fall between ticks.
var ingestExact = map[string]bool{
	"stream_live_ticks_total":    true,
	"stream_articles_total":      true,
	"stream_alerts_total":        true,
	"stream_late_articles_total": true,
}

// split divides a delta into the counts that repeat exactly and those
// that vary with concurrency (or, on ingest, with tick timing).
func (c counters) split(workload string) (exact, varies counters) {
	exact, varies = counters{}, counters{}
	for k, v := range c {
		name, _, _ := strings.Cut(k, "{")
		if variesWithConcurrency[name] || (workload == "ingest" && !ingestExact[name]) {
			varies[k] = v
		} else {
			exact[k] = v
		}
	}
	return exact, varies
}
