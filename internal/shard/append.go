package shard

import (
	"fmt"
	"sort"

	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/store"
)

// AppendTail folds one feed chunk into the tail shard — the sharded face of
// store.DB.AppendChunk. Stream appends always land in the time-ordered tail,
// so only the tail's snapshot version is bumped (inside AppendChunk). Every
// cached result goes stale through StaleKey, cold windows included: their
// answers can read the tail's postings and the per-event metadata this
// method rewrites in cold shards.
//
// The tail store rebuilds its own derived state (row-list and bitmap
// postings, quarter index, LUTs), but the shard layer holds assembly-time
// state of its own that an append invalidates, and this method repairs all
// of it before returning:
//
//   - l2gSrc[tail]: newly interned tail-local sources are interned into the
//     global dictionary and the remap is extended.
//   - Per-event metadata: NumArticles/FirstMention/Interval are global
//     columns copied verbatim into every shard holding the event, so the
//     tail's updated values are propagated to the other shards' copies
//     (their versions are not bumped; the tail's bump already retires
//     every cache key, since keys embed the whole version vector).
//   - The merged global event table and the event row remaps are rebuilt,
//     since appended events shift global rows.
//
// Like the store-level append, AppendTail is single-writer and must be
// serialized against in-flight queries by the caller.
func (s *DB) AppendTail(evs []gdelt.Event, mns []gdelt.Mention) (store.AppendStats, error) {
	tail := s.Tail()
	tailLo := s.bounds[len(s.bounds)-2]
	base := s.meta.Start.IntervalIndex()
	for i := range mns {
		if mns[i].MentionType != gdelt.MentionTypeWeb {
			continue
		}
		iv := mns[i].MentionTime.IntervalIndex() - base
		if iv >= 0 && iv < int64(s.meta.Intervals) && int32(iv) < tailLo {
			return store.AppendStats{}, fmt.Errorf(
				"shard: append mention at interval %d below the tail window [%d, %d)",
				iv, tailLo, s.meta.Intervals)
		}
	}

	// Home events the chunk mentions but the tail shard never held: copy
	// their rows verbatim from the merged global table, so the store-level
	// dangling check sees them and per-event metadata stays globally agreed.
	var adopt store.EventTable
	adopted := make(map[int64]bool)
	for i := range mns {
		id := mns[i].GlobalEventID
		if mns[i].MentionType != gdelt.MentionTypeWeb || adopted[id] || tail.EventRowByID(id) >= 0 {
			continue
		}
		g := sort.Search(s.events.Len(), func(k int) bool { return s.events.ID[k] >= id })
		if g >= s.events.Len() || s.events.ID[g] != id {
			continue // unknown globally too; AppendChunk counts it dangling
		}
		adopted[id] = true
		adopt.ID = append(adopt.ID, s.events.ID[g])
		adopt.Day = append(adopt.Day, s.events.Day[g])
		adopt.Interval = append(adopt.Interval, s.events.Interval[g])
		adopt.Country = append(adopt.Country, s.events.Country[g])
		adopt.NumArticles = append(adopt.NumArticles, s.events.NumArticles[g])
		adopt.FirstMention = append(adopt.FirstMention, s.events.FirstMention[g])
		adopt.SourceURL = append(adopt.SourceURL, s.events.SourceURL[g])
	}
	if adopt.Len() > 0 {
		if err := tail.AdoptEventRows(adopt); err != nil {
			return store.AppendStats{}, err
		}
	}

	oldSrc := tail.Sources.Len()
	st, err := tail.AppendChunk(evs, mns)
	if err != nil {
		return st, err
	}

	// Extend the tail's source remap for sources first seen in this chunk.
	ti := len(s.parts) - 1
	for ls := oldSrc; ls < tail.Sources.Len(); ls++ {
		s.l2gSrc[ti] = append(s.l2gSrc[ti], s.sources.Intern(tail.Sources.Name(int32(ls))))
	}

	// Propagate the global per-event columns to every other shard's copy of
	// each touched event, then rebuild the merged table and row remaps (the
	// merge re-checks that all copies agree).
	for _, r := range st.TouchedEventRows {
		id := tail.Events.ID[r]
		for pi, p := range s.parts {
			if pi == ti {
				continue
			}
			lr := p.EventRowByID(id)
			if lr < 0 {
				continue
			}
			p.Events.NumArticles[lr] = tail.Events.NumArticles[r]
			p.Events.FirstMention[lr] = tail.Events.FirstMention[r]
			p.Events.Interval[lr] = tail.Events.Interval[r]
		}
	}
	s.events = store.EventTable{}
	if err := s.mergeEvents(); err != nil {
		return st, fmt.Errorf("shard: append left shards disagreeing: %w", err)
	}
	s.eventCountryLUT = make([]int32, s.events.Len())
	for ev, c := range s.events.Country {
		s.eventCountryLUT[ev] = int32(c)
	}
	return st, nil
}
