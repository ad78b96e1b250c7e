package shard

import (
	"math/bits"
	"sort"
	"sync/atomic"

	"gdeltmine/internal/bitmap"
	"gdeltmine/internal/engine"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/matrix"
	"gdeltmine/internal/parallel"
	"gdeltmine/internal/queries"
	"gdeltmine/internal/stats"
)

// Sharded executions. Mention scans fan out through per-shard engines
// over the monolith's typed kernels (so window clipping, predicate
// selection and merge trees are shared code), and partial results reduce
// through the local→global remaps. Selection kinds share the monolith's
// plan algebra rather than its loops: under PlanEvents, co-reporting is
// set algebra over global event bitmaps, each built by remapping every
// shard's per-source event bitmap through l2gEv (ascending, since the
// merged event table keeps ID order) and unioning across shards. A
// per-shard intersection would miss events whose mentions span shards, so
// intersections run on the global bitmaps only. Per-source delay medians
// come off counting tables (stats.MedianSample), not sorted streams.
// Integer aggregates are exact sums and match the monolith bit for bit;
// float derivations (Jaccard, fractions, fits) go through the exported
// finishers in queries, so they see identical integer inputs and agree to
// 1e-9. Window semantics follow the monolith: mention-window kernels honor
// the view window, event-table, postings and GKG scans ignore it.

func (v *View) grain1() parallel.Options {
	opt := v.opt()
	opt.Grain = 1
	return opt
}

func (v *View) quarterLabels() []string {
	labels := make([]string, v.s.NumQuarters())
	for q := range labels {
		labels[q] = v.s.QuarterLabel(q)
	}
	return labels
}

// sumPerShard fans a per-shard kernel out over every shard — every kernel
// runs concurrently as a pool task, each bound to the worker executing it —
// and folds the n-length partial counters through a pairwise merge tree.
// Integer addition is associative and commutative, so the result is exact
// under any fold shape and matches the monolith bit for bit. Partials land
// in shard-indexed slots (no cross-shard writes); shards skipped by
// cancellation leave nil slots, which the merge drops.
func (v *View) sumPerShard(n int, f func(i int, e *engine.Engine) []int64) []int64 {
	partials := make([][]int64, v.s.K())
	v.forEachShard(func(_ *parallel.Worker, i int, e *engine.Engine) {
		partials[i] = f(i, e)
	})
	live := partials[:0]
	for _, p := range partials {
		if p != nil {
			live = append(live, p)
		}
	}
	if len(live) == 0 {
		return make([]int64, n)
	}
	return parallel.MergeTree(live, func(dst, src []int64) []int64 {
		for g, c := range src {
			dst[g] += c
		}
		return dst
	})
}

// groupCountEvents is the global-event-table analogue of the engine's
// GroupCountEventsCol: a parallel scan over the merged event table where
// groupOf returns the counter for an event, or a negative/out-of-range
// value to skip it. Event scans ignore the mention window, matching the
// monolith.
func (v *View) groupCountEvents(numGroups int, groupOf func(ev int) int) []int64 {
	return parallel.MapReduce(v.s.events.Len(), v.opt(),
		func() []int64 { return make([]int64, numGroups) },
		func(acc []int64, lo, hi int) []int64 {
			for ev := lo; ev < hi; ev++ {
				if g := groupOf(ev); g >= 0 && g < numGroups {
					acc[g]++
				}
			}
			return acc
		},
		func(dst, src []int64) []int64 {
			for i, c := range src {
				dst[i] += c
			}
			return dst
		},
	)
}

// Dataset computes Table I over the sharded store.
func (v *View) Dataset() queries.DatasetStats {
	s := v.s
	out := queries.DatasetStats{
		Sources:          s.sources.Len(),
		Events:           int64(s.events.Len()),
		CaptureIntervals: int64(s.meta.Intervals),
	}
	for _, p := range s.parts {
		out.Articles += int64(p.Mentions.Len())
	}
	var agg stats.IntSummary
	for _, n := range s.events.NumArticles {
		if n == 0 {
			out.ZeroMentionEvents++
			continue
		}
		agg.Add(int64(n))
	}
	if agg.N > 0 {
		out.MinArticles = agg.Min
		out.MaxArticles = agg.Max
		out.WeightedAvg = agg.Mean()
	}
	return out
}

// TopEvents returns the k most-reported events (Table III) from the merged
// global event table, with the same lower-row tie-break as the monolith
// (the merge preserves ID order, which is the monolith's row order).
func (v *View) TopEvents(k int) []queries.TopEvent {
	ev := &v.s.events
	idx := engine.TopK(ev.Len(), k, func(i int) int64 {
		return int64(ev.NumArticles[i])
	})
	out := make([]queries.TopEvent, 0, len(idx))
	for _, i := range idx {
		out = append(out, queries.TopEvent{
			Mentions:  int64(ev.NumArticles[i]),
			EventID:   ev.ID[i],
			SourceURL: ev.SourceURL[i],
		})
	}
	return out
}

// EventSizes computes the Figure 2 distribution over the global events.
func (v *View) EventSizes(xmin int) queries.EventSizeDistribution {
	ev := &v.s.events
	var maxN int32
	for _, n := range ev.NumArticles {
		if n > maxN {
			maxN = n
		}
	}
	counts := v.groupCountEvents(int(maxN)+1, func(i int) int { return int(ev.NumArticles[i]) })
	out := queries.EventSizeDistribution{Counts: counts}
	out.Fit, out.FitErr = stats.FitPowerLaw(counts, xmin)
	return out
}

// TopPublishers ranks global sources by windowed article count: per-shard
// typed group-counts remapped through l2gSrc and summed, then the same
// top-k selection (global ids preserve the monolith order, so ties break
// identically).
func (v *View) TopPublishers(k int) (ids []int32, counts []int64) {
	s := v.s
	perSource := v.sumPerShard(s.sources.Len(), func(i int, e *engine.Engine) []int64 {
		p := s.parts[i]
		return e.GroupCountCol(s.sources.Len(), p.Mentions.Source, s.l2gSrc[i])
	})
	top := engine.TopK(len(perSource), k, func(i int) int64 { return perSource[i] })
	for _, g := range top {
		ids = append(ids, int32(g))
		counts = append(counts, perSource[g])
	}
	return ids, counts
}

// ArticlesPerQuarter computes Figure 5 by summing per-shard quarter
// group-counts (quarter ids are global — every shard shares the Meta).
func (v *View) ArticlesPerQuarter() queries.QuarterlySeries {
	s := v.s
	nq := s.NumQuarters()
	vals := v.sumPerShard(nq, func(i int, e *engine.Engine) []int64 {
		p := s.parts[i]
		return e.GroupCountCol(nq, p.Mentions.Interval, p.QuarterLUT())
	})
	return queries.QuarterlySeries{Labels: v.quarterLabels(), Values: vals}
}

// EventsPerQuarter computes Figure 4 over the merged global event table.
func (v *View) EventsPerQuarter() queries.QuarterlySeries {
	s := v.s
	ev := &s.events
	qlut := s.parts[0].QuarterLUT()
	vals := v.groupCountEvents(s.NumQuarters(), func(i int) int {
		if ev.NumArticles[i] <= 0 {
			return -1
		}
		return int(qlut[ev.Interval[i]])
	})
	return queries.QuarterlySeries{Labels: v.quarterLabels(), Values: vals}
}

// ActiveSourcesPerQuarter computes Figure 3. A source's quarters of
// activity are the union over shards, so each shard fills its own
// source×quarter seen table (within one shard local sources map to
// distinct global rows, so the shard's inner loop is race-free even when
// parallel), the tables union through a merge tree — boolean OR is
// idempotent and commutative, so the fold shape is immaterial — and the
// per-quarter distinct counts come off the union.
func (v *View) ActiveSourcesPerQuarter() queries.QuarterlySeries {
	s := v.s
	nq := s.NumQuarters()
	ns := s.sources.Len()
	partials := make([][]bool, s.K())
	v.forEachShard(func(w *parallel.Worker, i int, _ *engine.Engine) {
		p := s.parts[i]
		remap := s.l2gSrc[i]
		seen := make([]bool, ns*nq)
		parallel.ForOpt(p.Sources.Len(), v.optW(w), func(lo, hi int) {
			for ls := lo; ls < hi; ls++ {
				rows := p.SourceMentions(int32(ls))
				if len(rows) == 0 {
					continue
				}
				base := int(remap[ls]) * nq
				for _, r := range rows {
					seen[base+p.QuarterOfInterval(p.Mentions.Interval[r])] = true
				}
			}
		})
		partials[i] = seen
	})
	live := partials[:0]
	for _, p := range partials {
		if p != nil {
			live = append(live, p)
		}
	}
	var seen []bool
	if len(live) > 0 {
		seen = parallel.MergeTree(live, func(dst, src []bool) []bool {
			for i, b := range src {
				if b {
					dst[i] = true
				}
			}
			return dst
		})
	} else {
		seen = make([]bool, ns*nq)
	}
	vals := make([]int64, nq)
	for g := 0; g < ns; g++ {
		for q := 0; q < nq; q++ {
			if seen[g*nq+q] {
				vals[q]++
			}
		}
	}
	return queries.QuarterlySeries{Labels: v.quarterLabels(), Values: vals}
}

// SlowArticlesPerQuarter computes Figure 11 via the per-shard typed
// filter→aggregate kernel.
func (v *View) SlowArticlesPerQuarter() queries.QuarterlySeries {
	s := v.s
	nq := s.NumQuarters()
	vals := v.sumPerShard(nq, func(i int, e *engine.Engine) []int64 {
		p := s.parts[i]
		return e.GroupCountColSel(nq, p.Mentions.Interval, p.QuarterLUT(),
			engine.PredGT(p.Mentions.Delay, gdelt.IntervalsPerDay))
	})
	return queries.QuarterlySeries{Labels: v.quarterLabels(), Values: vals}
}

// CountryQuery runs the aggregated country query (Tables V-VII). Pass 1
// fans the per-shard typed cross-count matrices out across the pool
// (country ids are global, so no remap is needed) and folds them through a
// merge tree; pass 2 builds per-event country bitmasks over global events,
// unioning each shard's slice of the event. Shards now scan concurrently,
// and one global event's mentions can span a shard boundary, so the
// cross-shard mask union is an atomic OR — commutative and idempotent,
// hence exact under any interleaving; within a shard distinct local events
// map to distinct global rows, so the atomic is one op per local event,
// not per mention row.
func (v *View) CountryQuery() (*queries.CountryReport, error) {
	s := v.s
	nc := len(gdelt.Countries)

	parts := make([]*matrix.Int64, s.K())
	v.forEachShard(func(_ *parallel.Worker, i int, e *engine.Engine) {
		p := s.parts[i]
		parts[i] = engine.CrossCountRemap(e, nc, nc,
			p.Mentions.EventRow, p.Events.Country,
			p.Mentions.Source, p.SourceCountry)
	})
	cross := matrix.NewInt64(nc, nc)
	liveParts := parts[:0]
	for _, m := range parts {
		if m != nil {
			liveParts = append(liveParts, m)
		}
	}
	if len(liveParts) > 0 {
		merged := parallel.MergeTree(liveParts, func(dst, src *matrix.Int64) *matrix.Int64 {
			if err := dst.AddMatrix(src); err != nil {
				panic(err) // identical nc×nc shapes by construction
			}
			parallel.PutInt64(src.Data)
			src.Data = nil
			return dst
		})
		// The merged partial is backed by a pooled buffer; fold it into a
		// caller-owned matrix and recycle the backing.
		if err := cross.AddMatrix(merged); err != nil {
			return nil, err
		}
		parallel.PutInt64(merged.Data)
		merged.Data = nil
	}

	masks := make([]uint64, s.events.Len())
	v.forEachShard(func(w *parallel.Worker, i int, _ *engine.Engine) {
		p := s.parts[i]
		remap := s.l2gEv[i]
		parallel.ForOpt(p.Events.Len(), v.optW(w), func(lo, hi int) {
			for le := lo; le < hi; le++ {
				rows := p.EventMentions(int32(le))
				if len(rows) == 0 {
					continue
				}
				var mask uint64
				for _, row := range rows {
					if c := p.SourceCountry[p.Mentions.Source[row]]; c >= 0 {
						mask |= 1 << uint(c)
					}
				}
				atomic.OrUint64(&masks[remap[le]], mask)
			}
		})
	})

	type partial struct {
		pair   *matrix.Int64
		counts []int64
	}
	res := parallel.MapReduce(s.events.Len(), v.opt(),
		func() *partial {
			return &partial{pair: matrix.NewInt64(nc, nc), counts: make([]int64, nc)}
		},
		func(acc *partial, lo, hi int) *partial {
			for ev := lo; ev < hi; ev++ {
				foldCountryMask(acc.pair, acc.counts, masks[ev])
			}
			return acc
		},
		func(dst, src *partial) *partial {
			if err := dst.pair.AddMatrix(src.pair); err != nil {
				panic(err)
			}
			for i, c := range src.counts {
				dst.counts[i] += c
			}
			return dst
		},
	)

	eventCounts := v.groupCountEvents(nc, func(ev int) int {
		if s.events.NumArticles[ev] <= 0 {
			return -1
		}
		return int(s.eventCountryLUT[ev])
	})
	return queries.FinishCountryReport(cross, res.pair, res.counts, eventCounts)
}

// foldCountryMask expands one event's reporting-country bitmask into the
// singleton and pair counters — the same bit loops as the monolith.
func foldCountryMask(pair *matrix.Int64, counts []int64, mask uint64) {
	for m := mask; m != 0; {
		i := bits.TrailingZeros64(m)
		m &^= 1 << uint(i)
		counts[i]++
		for m2 := m; m2 != 0; {
			j := bits.TrailingZeros64(m2)
			m2 &^= 1 << uint(j)
			pair.Inc(i, j)
			pair.Inc(j, i)
		}
	}
}

// PlanSelection resolves the physical plan for a selection query over the
// sharded store, mirroring engine.PlanSelection: forced modes pass through;
// PlanAuto estimates selectivity from the per-shard row-bitmap cardinalities
// of the selected sources against the total mention count.
func (v *View) PlanSelection(sources []int32) engine.PlanMode {
	m := v.plan
	if m == engine.PlanAuto {
		s := v.s
		selG := make([]bool, s.sources.Len())
		for _, src := range sources {
			selG[src] = true
		}
		// Per-shard cardinality sums land in shard-indexed slots and fold
		// afterwards (exact integer sums, any order).
		selP := make([]int64, s.K())
		nmP := make([]int64, s.K())
		v.forEachShard(func(_ *parallel.Worker, i int, _ *engine.Engine) {
			p := s.parts[i]
			nmP[i] = int64(p.Mentions.Len())
			remap := s.l2gSrc[i]
			for ls := 0; ls < p.Sources.Len(); ls++ {
				if selG[remap[ls]] {
					selP[i] += p.SourceRowBitmap(int32(ls)).Cardinality()
				}
			}
		})
		var sel, nm int64
		for i := range selP {
			sel += selP[i]
			nm += nmP[i]
		}
		m = engine.PlanRows
		if nm > 0 && float64(sel)/float64(nm) > engine.RowsPlanThreshold {
			m = engine.PlanEvents
		}
	}
	engine.ObservePlan(m)
	return m
}

// selection holds the per-shard execution plan for a global source
// selection: local slot lookup tables (local source id → selection index,
// -1 unselected), the ascending list of candidate global events, and —
// under the rows plan — per-shard CSRs of exactly the selected mention
// rows keyed by local event. Candidate events are discovered from the
// union of the selected sources' event bitmaps (O(containers) per source)
// rather than a walk over their postings; the scan plan skips discovery
// and lists every global event.
type selection struct {
	slots [][]int32
	evs   []int32
	// rows plan only: rowIdx[i][rowPtr[i][le]:rowPtr[i][le+1]] are shard
	// i's selected mention rows of local event le, ascending by interval.
	rowPtr [][]int32
	rowIdx [][]int32
}

func (v *View) selection(sources []int32, plan engine.PlanMode) *selection {
	s := v.s
	slotG := queries.SlotLUT(s.sources.Len(), sources)
	sel := &selection{slots: make([][]int32, len(s.parts))}
	if plan == engine.PlanRows {
		sel.rowPtr = make([][]int32, len(s.parts))
		sel.rowIdx = make([][]int32, len(s.parts))
	}
	// Candidate discovery runs one fan-out job per shard: slot tables and
	// (under the rows plan) the per-shard CSR are shard-indexed, while the
	// candidate set is a shared bitset — one global event can be discovered
	// by two shards at once, so bits are set with atomic OR (idempotent and
	// commutative, exact under any interleaving).
	var candWords []uint64
	if plan != engine.PlanScan {
		candWords = make([]uint64, (s.events.Len()+63)/64)
	}
	v.forEachShard(func(_ *parallel.Worker, i int, _ *engine.Engine) {
		p := s.parts[i]
		slots := make([]int32, p.Sources.Len())
		for ls := range slots {
			slots[ls] = slotG[s.l2gSrc[i][ls]]
		}
		sel.slots[i] = slots
		if plan == engine.PlanScan {
			return
		}
		var bms []*bitmap.Bitmap
		for ls, sl := range slots {
			if sl >= 0 {
				bms = append(bms, p.SourceEventBitmap(int32(ls)))
			}
		}
		u := bitmap.UnionAll(bms)
		remap := s.l2gEv[i]
		u.ForEach(func(le int32) {
			ev := remap[le]
			atomic.OrUint64(&candWords[ev>>6], 1<<uint(ev&63))
		})
		if plan == engine.PlanRows {
			var rbms []*bitmap.Bitmap
			for ls, sl := range slots {
				if sl >= 0 {
					rbms = append(rbms, p.SourceRowBitmap(int32(ls)))
				}
			}
			ru := bitmap.UnionAll(rbms)
			rows := ru.AppendRows(make([]int32, 0, ru.Cardinality()))
			ptr := make([]int32, p.Events.Len()+1)
			for _, r := range rows {
				ptr[p.Mentions.EventRow[r]+1]++
			}
			for le := 0; le < p.Events.Len(); le++ {
				ptr[le+1] += ptr[le]
			}
			idx := make([]int32, len(rows))
			cur := make([]int32, p.Events.Len())
			for _, r := range rows {
				le := p.Mentions.EventRow[r]
				idx[ptr[le]+cur[le]] = r
				cur[le]++
			}
			sel.rowPtr[i], sel.rowIdx[i] = ptr, idx
		}
	})
	if plan == engine.PlanScan {
		sel.evs = make([]int32, s.events.Len())
		for ev := range sel.evs {
			sel.evs[ev] = int32(ev)
		}
		return sel
	}
	// Walking words in order and bits low-to-high yields the same ascending
	// candidate list as the sequential boolean walk did.
	for wi, word := range candWords {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			sel.evs = append(sel.evs, int32(wi*64+b))
		}
	}
	return sel
}

// shardRows calls f with each shard's mention rows for global event ev, in
// shard (= time) order: the full event mention lists, or — under the rows
// plan — only the selected rows. Within a shard rows ascend by interval and
// shards tile time in order, so the concatenation replays the monolith's
// ordering either way.
func (sel *selection) shardRows(s *DB, ev int32, f func(i int, rows []int32)) {
	if sel.rowPtr == nil {
		s.shardEventRows(ev, f)
		return
	}
	for i := range s.parts {
		if lr := s.g2lEv[i][ev]; lr >= 0 {
			ptr := sel.rowPtr[i]
			if rows := sel.rowIdx[i][ptr[lr]:ptr[lr+1]]; len(rows) > 0 {
				f(i, rows)
			}
		}
	}
}

// shardEventRows calls f with each shard's mention rows for global event
// ev, in shard (= time) order. Within a shard rows ascend by interval and
// shards tile time in order, so the concatenation replays the monolith's
// event-mention ordering.
func (s *DB) shardEventRows(ev int32, f func(i int, rows []int32)) {
	for i, p := range s.parts {
		if lr := s.g2lEv[i][ev]; lr >= 0 {
			if rows := p.EventMentions(lr); len(rows) > 0 {
				f(i, rows)
			}
		}
	}
}

// CoReport computes co-reporting among the selected global sources through
// the planner-resolved plan: global event-bitmap algebra (events), a fold
// over the selected rows only (rows), or over every global event's full
// mention list (scan, forced only). All plans produce identical results.
func (v *View) CoReport(sources []int32) (*queries.CoReporting, error) {
	plan := v.PlanSelection(sources)
	if plan == engine.PlanEvents {
		return v.coReportEvents(sources)
	}
	s := v.s
	n := len(sources)
	sel := v.selection(sources, plan)
	type partial struct {
		pair   *matrix.Int64
		counts []int64
	}
	res := parallel.MapReduce(len(sel.evs), v.opt(),
		func() *partial {
			return &partial{pair: matrix.NewInt64(n, n), counts: make([]int64, n)}
		},
		func(acc *partial, lo, hi int) *partial {
			present := make([]int32, 0, 16)
			mark := make([]bool, n)
			for _, ev := range sel.evs[lo:hi] {
				present = present[:0]
				sel.shardRows(s, ev, func(i int, rows []int32) {
					p := s.parts[i]
					slots := sel.slots[i]
					for _, row := range rows {
						if sl := slots[p.Mentions.Source[row]]; sl >= 0 && !mark[sl] {
							mark[sl] = true
							present = append(present, sl)
						}
					}
				})
				for _, i := range present {
					mark[i] = false
					acc.counts[i]++
				}
				for a := 0; a < len(present); a++ {
					for b := a + 1; b < len(present); b++ {
						acc.pair.Inc(int(present[a]), int(present[b]))
						acc.pair.Inc(int(present[b]), int(present[a]))
					}
				}
			}
			return acc
		},
		func(dst, src *partial) *partial {
			if err := dst.pair.AddMatrix(src.pair); err != nil {
				panic(err)
			}
			for i, c := range src.counts {
				dst.counts[i] += c
			}
			return dst
		},
	)
	return queries.FinishCoReporting(sources, v.sourceNames(sources), res.counts, res.pair)
}

// coReportEvents is the sharded form of the monolith's event-bitmap plan.
// Each active panel position gets a global event bitmap: every shard
// remaps its local per-source event bitmap through l2gEv (ascending, so
// the remapped rows stay sorted) and the shards' bitmaps are unioned.
// Intersecting per shard would undercount events whose mentions span
// shards, so the pair counts come off the global bitmaps. A shard holding
// every global event has the identity remap and lends its bitmaps as is.
func (v *View) coReportEvents(sources []int32) (*queries.CoReporting, error) {
	s := v.s
	slotG := queries.SlotLUT(s.sources.Len(), sources)
	act := queries.ActiveSlots(sources, slotG)
	local := make([][]*bitmap.Bitmap, s.K()) // [shard][panel position]
	v.forEachShard(func(_ *parallel.Worker, i int, _ *engine.Engine) {
		p := s.parts[i]
		identity := p.Events.Len() == s.events.Len()
		remap := s.l2gEv[i]
		bms := make([]*bitmap.Bitmap, len(sources))
		var rows []int32
		for ls, g := range s.l2gSrc[i] {
			pos := slotG[g]
			if pos < 0 {
				continue
			}
			bm := p.SourceEventBitmap(int32(ls))
			if !identity {
				rows = bm.AppendRows(rows[:0])
				for j, le := range rows {
					rows[j] = remap[le]
				}
				bm = bitmap.FromSorted(rows)
			}
			bms[pos] = bm
		}
		local[i] = bms
	})
	global := make([]*bitmap.Bitmap, len(act))
	parallel.ForOpt(len(act), v.opt(), func(lo, hi int) {
		parts := make([]*bitmap.Bitmap, 0, len(local))
		for a := lo; a < hi; a++ {
			parts = parts[:0]
			for _, bms := range local {
				if bms != nil {
					parts = append(parts, bms[act[a]])
				}
			}
			global[a] = bitmap.UnionAll(parts)
		}
	})
	counts, pair := queries.EventBitmapCounts(len(sources), act, global)
	return queries.FinishCoReporting(sources, v.sourceNames(sources), counts, pair)
}

// FollowReport computes follow-reporting among the selected global
// sources. The per-event leader state (firstSeen/touched) persists across
// the event's shard segments — one event's mentions may span several
// shards, and the fold must see them as one ascending-interval stream.
func (v *View) FollowReport(sources []int32) *queries.FollowReporting {
	s := v.s
	n := len(sources)
	sel := v.selection(sources, v.PlanSelection(sources))
	nm := parallel.MapReduce(len(sel.evs), v.opt(),
		func() *matrix.Int64 { return matrix.NewInt64(n, n) },
		func(acc *matrix.Int64, lo, hi int) *matrix.Int64 {
			firstSeen := make([]int32, n)
			for i := range firstSeen {
				firstSeen[i] = -1
			}
			touched := make([]int32, 0, 16)
			for _, ev := range sel.evs[lo:hi] {
				sel.shardRows(s, ev, func(i int, rows []int32) {
					p := s.parts[i]
					slots := sel.slots[i]
					for _, row := range rows {
						j := slots[p.Mentions.Source[row]]
						if j < 0 {
							continue
						}
						t := p.Mentions.Interval[row]
						for _, l := range touched {
							if firstSeen[l] < t {
								acc.Inc(int(l), int(j))
							}
						}
						if firstSeen[j] < 0 {
							firstSeen[j] = t
							touched = append(touched, j)
						}
					}
				})
				for _, l := range touched {
					firstSeen[l] = -1
				}
				touched = touched[:0]
			}
			return acc
		},
		func(dst, src *matrix.Int64) *matrix.Int64 {
			if err := dst.AddMatrix(src); err != nil {
				panic(err)
			}
			return dst
		},
	)
	articles := make([]int64, n)
	for i, src := range sources {
		articles[i] = v.sourceArticles(src)
	}
	return queries.FinishFollowReporting(sources, v.sourceNames(sources), articles, nm)
}

func (v *View) sourceNames(sources []int32) []string {
	names := make([]string, 0, len(sources))
	for _, src := range sources {
		names = append(names, v.s.sources.Name(src))
	}
	return names
}

// sourceArticles sums a global source's postings lengths over the shards
// holding it (full archive, window-insensitive like the monolith).
func (v *View) sourceArticles(src int32) int64 {
	var total int64
	name := v.s.sources.Name(src)
	for _, p := range v.s.parts {
		if ls := p.Sources.Lookup(name); ls >= 0 {
			total += int64(len(p.SourceMentions(ls)))
		}
	}
	return total
}

// PublisherDelays computes Table VIII rows for the given global sources.
// Each source's per-shard delay streams fold into one MedianSample per
// chunk of sources, so no stream is materialized or sorted per source.
func (v *View) PublisherDelays(sources []int32) []queries.SourceDelayStats {
	s := v.s
	out := make([]queries.SourceDelayStats, len(sources))
	parallel.ForOpt(len(sources), v.opt(), func(lo, hi int) {
		ms := stats.NewMedianSample(gdelt.MaxDelay)
		rows := make([][]int32, len(s.parts))
		for i := lo; i < hi; i++ {
			src := sources[i]
			name := s.sources.Name(src)
			n := 0
			for pi, p := range s.parts {
				rows[pi] = nil
				if ls := p.Sources.Lookup(name); ls >= 0 {
					rows[pi] = p.SourceMentions(ls)
					n += len(rows[pi])
				}
			}
			ms.Reset(n)
			for pi, p := range s.parts {
				ms.AddRows(p.Mentions.Delay, rows[pi])
			}
			out[i] = queries.SourceDelays(src, name, ms)
		}
	})
	return out
}

// QuarterlyDelays computes Figure 10; each quarter's exact value→count
// table accumulates over every shard's slice of the quarter.
func (v *View) QuarterlyDelays() queries.QuarterlyDelay {
	s := v.s
	nq := s.NumQuarters()
	out := queries.QuarterlyDelay{
		Labels:  v.quarterLabels(),
		Average: make([]float64, nq),
		Median:  make([]int64, nq),
	}
	parallel.ForOpt(nq, v.grain1(), func(qlo, qhi int) {
		ct := stats.NewCountTable(gdelt.MaxDelay)
		for q := qlo; q < qhi; q++ {
			for i := range ct.Counts {
				ct.Counts[i] = 0
			}
			ct.N = 0
			for _, p := range s.parts {
				lo, hi := p.QuarterMentionRange(q)
				for r := lo; r < hi; r++ {
					ct.Add(int64(p.Mentions.Delay[r]))
				}
			}
			if ct.N > 0 {
				out.Average[q] = ct.Mean()
				out.Median[q] = ct.Median()
			}
		}
	})
	return out
}

// FastSpreadingEvents ranks global events by distinct early reporters.
// Early sources are keyed by global id; the shard walk stops at the first
// shard starting at or past the cutoff (later shards hold only later
// mentions).
func (v *View) FastSpreadingEvents(window int32, minSources, k int) []queries.Wildfire {
	s := v.s
	if window < 1 {
		window = 1
	}
	candidates := parallel.MapReduce(s.events.Len(), v.opt(),
		func() []queries.Wildfire { return nil },
		func(acc []queries.Wildfire, lo, hi int) []queries.Wildfire {
			// stamp[g] == gen marks global source g as seen on the current
			// event, so moving to the next event is one increment.
			stamp := make([]int32, s.sources.Len())
			var gen int32
			for ev := lo; ev < hi; ev++ {
				total := 0
				for i, p := range s.parts {
					if lr := s.g2lEv[i][ev]; lr >= 0 {
						total += len(p.EventMentions(lr))
					}
				}
				if total < minSources {
					continue
				}
				cutoff := s.events.Interval[ev] + window
				gen++
				early, distinct := 0, 0
				for i, p := range s.parts {
					if s.bounds[i] >= cutoff {
						break // every remaining mention is past the window
					}
					lr := s.g2lEv[i][ev]
					if lr < 0 {
						continue
					}
					remap := s.l2gSrc[i]
					for _, r := range p.EventMentions(lr) {
						if p.Mentions.Interval[r] >= cutoff {
							break // postings are interval-sorted
						}
						early++
						if g := remap[p.Mentions.Source[r]]; stamp[g] != gen {
							stamp[g] = gen
							distinct++
						}
					}
				}
				if distinct < minSources {
					continue
				}
				acc = append(acc, queries.Wildfire{
					EventRow:      int32(ev),
					EventID:       s.events.ID[ev],
					SourceURL:     s.events.SourceURL[ev],
					EarlySources:  distinct,
					EarlyArticles: early,
					TotalArticles: s.events.NumArticles[ev],
					Velocity:      float64(distinct) / float64(window),
				})
			}
			return acc
		},
		func(dst, src []queries.Wildfire) []queries.Wildfire { return append(dst, src...) },
	)
	sort.Slice(candidates, func(a, b int) bool {
		if candidates[a].EarlySources != candidates[b].EarlySources {
			return candidates[a].EarlySources > candidates[b].EarlySources
		}
		return candidates[a].EventID < candidates[b].EventID
	})
	if len(candidates) > k {
		candidates = candidates[:k]
	}
	return candidates
}
