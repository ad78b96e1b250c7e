// Package shard implements the time-partitioned shard layer: a DB that
// holds K time-range shards, each an independent store.DB with its own
// dictionaries, plus the global dictionaries and the local→global remaps
// built at assembly time. Query execution (view.go, queries.go) fans out
// per shard over the existing typed kernels and reduces the partial
// results through the remaps into one global answer that is bit-exact
// (1e-9 for floats) against the monolithic execution — the invariant the
// differential battery in internal/baseline pins.
//
// Layout invariants (enforced by New, never assumed):
//
//   - bounds is a strict tiling of [0, Meta.Intervals]: bounds[0] == 0,
//     strictly increasing, bounds[K] == Intervals. Shard i owns capture
//     intervals [bounds[i], bounds[i+1]).
//   - Every shard carries the full global Meta, so quarter indexes, labels
//     and interval arithmetic agree across shards and with the monolith.
//   - A shard's mention table holds exactly the monolith's mentions captured
//     in its interval range (still interval-sorted); its event table is the
//     ID-ordered subsequence of global events it references (plus the events
//     homed in its range), with per-event metadata (NumArticles,
//     FirstMention, ...) copied verbatim from the monolith, so the K-way
//     merge of shard event tables reproduces the global table exactly.
//   - Dictionaries are local; the global source (and theme) dictionary plus
//     the name-derived local→global remaps are what assembly adds.
package shard

import (
	"fmt"
	"strconv"
	"strings"

	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/qcache"
	"gdeltmine/internal/store"
)

// DB is a time-partitioned sharded store: K independent store.DB shards
// plus the assembly-time global dictionaries and remaps. Immutable after
// New except for the per-shard snapshot versions (stream appends land in
// the tail shard and bump its version).
type DB struct {
	meta   store.Meta
	bounds []int32     // K+1 interval boundaries tiling [0, Intervals]
	parts  []*store.DB // time-ordered shards

	sources *store.Dictionary // global source dictionary (monolith id order)
	events  store.EventTable  // K-way ID-merged global event table
	report  *gdelt.ValidationReport

	eventCountryLUT []int32 // global event row -> country index, -1 untagged

	l2gSrc [][]int32 // per shard: local source id -> global source id
	l2gEv  [][]int32 // per shard: local event row -> global event row
	g2lEv  [][]int32 // per shard: global event row -> local event row, -1 absent

	hasGKG   bool
	themes   *store.Dictionary // global theme dictionary, nil without GKG
	l2gTheme [][]int32         // per shard: local theme id -> global theme id
}

// New assembles a sharded DB from time-ordered parts. bounds must tile
// [0, Intervals]; sources (and themes, when the parts carry GKG) are the
// global dictionaries every local dictionary remaps into by name. All
// inputs are validated — corrupt manifests and disagreeing shards error,
// they never panic.
func New(parts []*store.DB, bounds []int32, sources, themes *store.Dictionary, report *gdelt.ValidationReport) (*DB, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("shard: no shards")
	}
	if sources == nil {
		return nil, fmt.Errorf("shard: nil global source dictionary")
	}
	for i, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("shard: shard %d is nil", i)
		}
	}
	meta := parts[0].Meta
	if len(bounds) != len(parts)+1 {
		return nil, fmt.Errorf("shard: %d bounds for %d shards", len(bounds), len(parts))
	}
	if bounds[0] != 0 || bounds[len(bounds)-1] != meta.Intervals {
		return nil, fmt.Errorf("shard: bounds [%d, %d] do not tile [0, %d]",
			bounds[0], bounds[len(bounds)-1], meta.Intervals)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("shard: bounds not strictly increasing at %d", i)
		}
	}
	s := &DB{
		meta:    meta,
		bounds:  append([]int32(nil), bounds...),
		parts:   append([]*store.DB(nil), parts...),
		sources: sources,
		report:  report,
	}
	if s.report == nil {
		s.report = parts[0].Report
	}
	for i, p := range parts {
		if p.Meta != meta {
			return nil, fmt.Errorf("shard: shard %d meta %+v disagrees with shard 0 %+v", i, p.Meta, meta)
		}
		if n := p.Mentions.Len(); n > 0 {
			if iv := p.Mentions.Interval[0]; iv < bounds[i] {
				return nil, fmt.Errorf("shard: shard %d mention interval %d below bound %d", i, iv, bounds[i])
			}
			if iv := p.Mentions.Interval[n-1]; iv >= bounds[i+1] {
				return nil, fmt.Errorf("shard: shard %d mention interval %d past bound %d", i, iv, bounds[i+1])
			}
		}
	}
	if err := s.buildSourceRemaps(); err != nil {
		return nil, err
	}
	if err := s.mergeEvents(); err != nil {
		return nil, err
	}
	if err := s.buildThemeRemaps(themes); err != nil {
		return nil, err
	}
	s.eventCountryLUT = make([]int32, s.events.Len())
	for ev, c := range s.events.Country {
		s.eventCountryLUT[ev] = int32(c)
	}
	return s, nil
}

// buildSourceRemaps derives each shard's local→global source remap by name.
// A local source missing from the global dictionary is a corrupt manifest.
func (s *DB) buildSourceRemaps() error {
	s.l2gSrc = make([][]int32, len(s.parts))
	for i, p := range s.parts {
		remap := make([]int32, p.Sources.Len())
		for ls := range remap {
			g := s.sources.Lookup(p.Sources.Name(int32(ls)))
			if g < 0 {
				return fmt.Errorf("shard: shard %d source %q missing from global dictionary",
					i, p.Sources.Name(int32(ls)))
			}
			remap[ls] = g
		}
		s.l2gSrc[i] = remap
	}
	return nil
}

// mergeEvents K-way merges the shards' ID-sorted event tables into the
// global table, building the event row remaps. Shards holding the same
// event must agree on every column — they all copied it verbatim from the
// same monolith row.
func (s *DB) mergeEvents() error {
	K := len(s.parts)
	cur := make([]int, K)
	s.l2gEv = make([][]int32, K)
	for i, p := range s.parts {
		s.l2gEv[i] = make([]int32, p.Events.Len())
	}
	ev := &s.events
	for {
		minID, found := int64(0), false
		for i, p := range s.parts {
			if cur[i] < p.Events.Len() {
				if id := p.Events.ID[cur[i]]; !found || id < minID {
					minID, found = id, true
				}
			}
		}
		if !found {
			break
		}
		g := ev.Len()
		first := true
		for i, p := range s.parts {
			r := cur[i]
			if r >= p.Events.Len() || p.Events.ID[r] != minID {
				continue
			}
			if first {
				first = false
				ev.ID = append(ev.ID, minID)
				ev.Day = append(ev.Day, p.Events.Day[r])
				ev.Interval = append(ev.Interval, p.Events.Interval[r])
				ev.Country = append(ev.Country, p.Events.Country[r])
				ev.NumArticles = append(ev.NumArticles, p.Events.NumArticles[r])
				ev.FirstMention = append(ev.FirstMention, p.Events.FirstMention[r])
				ev.SourceURL = append(ev.SourceURL, p.Events.SourceURL[r])
			} else if p.Events.Day[r] != ev.Day[g] || p.Events.Interval[r] != ev.Interval[g] ||
				p.Events.Country[r] != ev.Country[g] || p.Events.NumArticles[r] != ev.NumArticles[g] ||
				p.Events.FirstMention[r] != ev.FirstMention[g] || p.Events.SourceURL[r] != ev.SourceURL[g] {
				return fmt.Errorf("shard: shards disagree on event %d", minID)
			}
			s.l2gEv[i][r] = int32(g)
			cur[i]++
		}
	}
	s.g2lEv = make([][]int32, K)
	for i := range s.parts {
		inv := make([]int32, ev.Len())
		for g := range inv {
			inv[g] = -1
		}
		for r, g := range s.l2gEv[i] {
			inv[g] = int32(r)
		}
		s.g2lEv[i] = inv
	}
	return nil
}

// buildThemeRemaps wires the GKG side: all shards must agree on having GKG
// data, and when they do, a global theme dictionary is required and every
// local theme must resolve in it.
func (s *DB) buildThemeRemaps(themes *store.Dictionary) error {
	withGKG := 0
	for _, p := range s.parts {
		if p.GKG != nil {
			withGKG++
		}
	}
	if withGKG == 0 {
		return nil
	}
	if withGKG != len(s.parts) {
		return fmt.Errorf("shard: %d of %d shards carry GKG data", withGKG, len(s.parts))
	}
	if themes == nil {
		return fmt.Errorf("shard: shards carry GKG data but no global theme dictionary given")
	}
	s.hasGKG = true
	s.themes = themes
	s.l2gTheme = make([][]int32, len(s.parts))
	for i, p := range s.parts {
		remap := make([]int32, p.GKG.Themes.Len())
		for lt := range remap {
			g := themes.Lookup(p.GKG.Themes.Name(int32(lt)))
			if g < 0 {
				return fmt.Errorf("shard: shard %d theme %q missing from global dictionary",
					i, p.GKG.Themes.Name(int32(lt)))
			}
			remap[lt] = g
		}
		s.l2gTheme[i] = remap
	}
	return nil
}

// K returns the number of shards.
func (s *DB) K() int { return len(s.parts) }

// Bounds returns the K+1 interval boundaries tiling [0, Meta.Intervals].
func (s *DB) Bounds() []int32 { return append([]int32(nil), s.bounds...) }

// Part returns shard i.
func (s *DB) Part(i int) *store.DB { return s.parts[i] }

// Tail returns the last (most recent) shard — the only shard a stream
// append extends, and therefore the only version a chunk fold bumps.
func (s *DB) Tail() *store.DB { return s.parts[len(s.parts)-1] }

// Meta returns the shared dataset metadata.
func (s *DB) Meta() store.Meta { return s.meta }

// Report returns the shared conversion defect report.
func (s *DB) Report() *gdelt.ValidationReport { return s.report }

// Sources returns the global source dictionary (monolith id order).
func (s *DB) Sources() *store.Dictionary { return s.sources }

// EventCount returns the number of global events.
func (s *DB) EventCount() int { return s.events.Len() }

// HasGKG reports whether the shards carry Global Knowledge Graph data.
func (s *DB) HasGKG() bool { return s.hasGKG }

// Themes returns the global theme dictionary, or nil without GKG.
func (s *DB) Themes() *store.Dictionary { return s.themes }

// NumQuarters returns the number of calendar quarters covered. All shards
// share the global Meta, so quarter geometry is identical everywhere.
func (s *DB) NumQuarters() int { return s.parts[0].NumQuarters() }

// QuarterLabel renders quarter q as e.g. "2016Q3".
func (s *DB) QuarterLabel(q int) string { return s.parts[0].QuarterLabel(q) }

// QuarterOfInterval maps a capture interval to a quarter index.
func (s *DB) QuarterOfInterval(iv int32) int { return s.parts[0].QuarterOfInterval(iv) }

// VersionMax returns the maximum snapshot version over all shards — the
// Version component of a sharded cache key.
func (s *DB) VersionMax() uint64 {
	var max uint64
	for _, p := range s.parts {
		if v := p.Version(); v > max {
			max = v
		}
	}
	return max
}

// WindowVersionKey renders the Window component of a sharded cache key:
// the interval window plus the version vector of every shard. The vector
// covers shards outside the window too, because a window does not bound
// what an answer reads: event-table, postings and GKG scans ignore it, and
// a tail append rewrites per-event metadata held by cold shards. Any
// append therefore retires every cached window (see StaleKey and
// qcache.Cache.SetStale), and a seal, which changes the shard count,
// changes every key.
func (s *DB) WindowVersionKey(from, to int32) string {
	var b strings.Builder
	b.WriteString("iv")
	b.WriteString(strconv.FormatInt(int64(from), 10))
	b.WriteByte(':')
	b.WriteString(strconv.FormatInt(int64(to), 10))
	b.WriteString("/v")
	for i, p := range s.parts {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(strconv.FormatUint(p.Version(), 10))
	}
	return b.String()
}

// StaleKey reports whether a cached entry's key was computed at a version
// vector the shards have moved past. It re-derives the expected window key
// from the entry's interval window and compares. Keys that do not parse
// are conservatively stale.
func (s *DB) StaleKey(k qcache.Key) bool {
	rest, ok := strings.CutPrefix(k.Window, "iv")
	if !ok {
		return true
	}
	fromStr, rest, ok := strings.Cut(rest, ":")
	if !ok {
		return true
	}
	toStr, _, ok := strings.Cut(rest, "/")
	if !ok {
		return true
	}
	from, err := strconv.ParseInt(fromStr, 10, 32)
	if err != nil {
		return true
	}
	to, err := strconv.ParseInt(toStr, 10, 32)
	if err != nil {
		return true
	}
	return k.Window != s.WindowVersionKey(int32(from), int32(to))
}
