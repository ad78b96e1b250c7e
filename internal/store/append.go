package store

import (
	"fmt"
	"sort"

	"gdeltmine/internal/gdelt"
)

// Stream appends. A feed chunk is one 15-minute update: an events file and a
// mentions file. AppendChunk folds one chunk into an already-assembled DB —
// the mutable exception to the store's otherwise immutable-after-assembly
// contract. The dangerous part is not the column appends but the derived
// state: the row-list postings, the per-source bitmap postings the planner
// prunes with (srcRowBM/srcEvBM/srcRepEvBM), the quarter index, and the
// typed LUTs are all materialized from the tables at assembly time, so an
// append that extended the columns without rebuilding them would leave the
// bitmap-pruned plans answering from the pre-append snapshot while the
// closure scan sees the new rows — a silent wrong-answer divergence, not a
// crash. AppendChunk therefore rebuilds every derived index before it
// returns and bumps the snapshot version so result caches keyed on
// Version() retire everything computed against the old data.
//
// Appends are single-writer and must not race in-flight queries: the caller
// serializes AppendChunk against query execution (the stream monitor's fold
// loop is single-threaded, so this is the natural shape there). GKG
// annotations are not extended by appends — the GKG table keeps its own
// interval column, so theme queries simply do not cover the appended span.

// AppendStats reports what an append folded in and dropped, mirroring
// BuildStats for the batch path.
type AppendStats struct {
	// AppendedEvents and AppendedMentions count the rows actually added.
	AppendedEvents, AppendedMentions int
	// DuplicateEvents counts chunk events whose GlobalEventID already
	// exists; the stored record wins, as in Builder.Finish.
	DuplicateEvents int64
	// DanglingMentions counts mentions referencing an unknown event.
	DanglingMentions int64
	// DroppedMentions counts non-web mentions and mentions captured outside
	// the archive span.
	DroppedMentions int64
	// TouchedEventRows lists the distinct event rows (post-append indexes)
	// whose per-event metadata changed — appended events plus events that
	// gained mentions. The sharded tail append uses it to propagate the
	// global per-event columns to the other shards' copies.
	TouchedEventRows []int32
}

// stagedMention is one accepted chunk mention, resolved against the
// post-insert event table.
type stagedMention struct {
	row   int32 // event row
	src   int32
	iv    int32 // mention capture interval, archive-relative
	evIv  int64 // event capture interval (may precede the archive)
	dlen  int32
	tone  float32
	conf  int8
	order int32 // input position, for the stable interval sort
}

// AppendChunk folds one feed chunk's events and mentions into the store.
// Chunk mentions must not regress: every accepted mention's capture
// interval has to be at or past the last stored interval (the tail-only
// contract of the time-ordered feed); a regression is an error and nothing
// is mutated. Non-web, out-of-range, and dangling mentions are dropped and
// counted exactly as Builder.Finish drops them, so appending a suffix of a
// feed equals rebuilding from the whole feed.
func (db *DB) AppendChunk(evs []gdelt.Event, mns []gdelt.Mention) (AppendStats, error) {
	var st AppendStats
	base := db.Meta.Start.IntervalIndex()

	// Stage the new events: unknown IDs only, sorted by ID for the merge.
	var newEvs []gdelt.Event
	seen := make(map[int64]bool, len(evs))
	for i := range evs {
		id := evs[i].GlobalEventID
		if seen[id] || db.EventRowByID(id) >= 0 {
			st.DuplicateEvents++
			continue
		}
		seen[id] = true
		newEvs = append(newEvs, evs[i])
	}
	sort.Slice(newEvs, func(a, b int) bool { return newEvs[a].GlobalEventID < newEvs[b].GlobalEventID })

	// Validate the mention batch BEFORE mutating anything. Event references
	// are resolved against the union of stored and staged event IDs; rows
	// are assigned after the merge below.
	lastIv := int32(0)
	if n := db.Mentions.Len(); n > 0 {
		lastIv = db.Mentions.Interval[n-1]
	}
	type pending struct {
		mi int // index into mns
		iv int32
	}
	var accept []pending
	for i := range mns {
		mn := &mns[i]
		if mn.MentionType != gdelt.MentionTypeWeb {
			st.DroppedMentions++
			continue
		}
		iv := mn.MentionTime.IntervalIndex() - base
		if iv < 0 || iv >= int64(db.Meta.Intervals) {
			st.DroppedMentions++
			db.Report.Record(gdelt.DefectBadRow,
				fmt.Sprintf("mention of event %d at %v outside archive", mn.GlobalEventID, mn.MentionTime))
			continue
		}
		if int32(iv) < lastIv {
			return AppendStats{}, fmt.Errorf(
				"store: append regresses to interval %d behind stored tail %d", iv, lastIv)
		}
		if db.EventRowByID(mn.GlobalEventID) < 0 && !seen[mn.GlobalEventID] {
			st.DanglingMentions++
			continue
		}
		accept = append(accept, pending{mi: i, iv: int32(iv)})
	}

	// Merge the staged events into the ID-sorted table, rewriting the
	// mention table's event-row references across the shift.
	if len(newEvs) > 0 {
		db.insertEvents(newEvs, base)
		st.AppendedEvents = len(newEvs)
	}

	// Stable-sort accepted mentions by interval (the builder's global sort
	// restricted to the chunk) and append the columns.
	sort.SliceStable(accept, func(a, b int) bool { return accept[a].iv < accept[b].iv })
	touched := make(map[int32]bool, len(accept)+len(newEvs))
	for i := range newEvs {
		touched[db.EventRowByID(newEvs[i].GlobalEventID)] = true
	}
	for _, p := range accept {
		mn := &mns[p.mi]
		row := db.EventRowByID(mn.GlobalEventID)
		evIv := mn.EventTime.IntervalIndex() - base
		delay := int64(p.iv) - evIv + 1
		if delay < 0 {
			delay = 0
		}
		if delay > gdelt.MaxDelay {
			delay = gdelt.MaxDelay
		}
		db.Mentions.EventRow = append(db.Mentions.EventRow, row)
		db.Mentions.Source = append(db.Mentions.Source, db.Sources.Intern(mn.SourceName))
		db.Mentions.Interval = append(db.Mentions.Interval, p.iv)
		db.Mentions.Delay = append(db.Mentions.Delay, int32(delay))
		db.Mentions.DocLen = append(db.Mentions.DocLen, mn.DocLen)
		db.Mentions.Tone = append(db.Mentions.Tone, mn.DocTone)
		db.Mentions.Confidence = append(db.Mentions.Confidence, mn.Confidence)

		// First mention of the event anywhere: pin FirstMention and refine
		// the event interval from EventTimeDate, as Finish does.
		if db.Events.NumArticles[row] == 0 {
			db.Events.FirstMention[row] = p.iv
			db.Events.Interval[row] = clampInterval(evIv, db.Meta.Intervals)
		}
		db.Events.NumArticles[row]++
		touched[row] = true
		st.AppendedMentions++
	}

	st.TouchedEventRows = make([]int32, 0, len(touched))
	for r := range touched {
		st.TouchedEventRows = append(st.TouchedEventRows, r)
	}
	sort.Slice(st.TouchedEventRows, func(a, b int) bool {
		return st.TouchedEventRows[a] < st.TouchedEventRows[b]
	})

	// Rebuild every derived index the query layers read. buildPostings ends
	// in buildSourceBitmaps, so the planner's bitmap postings can never be
	// stale relative to the tables; buildSourceCountries and the typed LUTs
	// cover dictionary growth from newly interned sources.
	db.buildSourceCountries()
	db.buildPostings()
	db.buildQuarterIndex()
	db.buildTypedLUTs()
	if err := db.Validate(); err != nil {
		return st, fmt.Errorf("store: append left an invalid db: %w", err)
	}
	db.BumpVersion()
	return st, nil
}

// AdoptEventRows merges already-derived event rows — copied verbatim from
// another shard of the same archive — into the event table, rewriting the
// mention table's event-row references and rebuilding the row-dependent
// derived indexes. The sharded tail append uses it to home events that a
// new chunk mentions but the tail shard never held; unlike AppendChunk's
// raw-event staging, the rows keep their global metadata (NumArticles,
// FirstMention, Interval) unchanged. IDs already present are skipped. The
// snapshot version is not bumped: adoption alone changes no query-visible
// data, and the AppendChunk that follows bumps it.
func (db *DB) AdoptEventRows(ev EventTable) error {
	order := make([]int, 0, ev.Len())
	for i := 0; i < ev.Len(); i++ {
		if db.EventRowByID(ev.ID[i]) < 0 {
			order = append(order, i)
		}
	}
	if len(order) == 0 {
		return nil
	}
	sort.Slice(order, func(a, b int) bool { return ev.ID[order[a]] < ev.ID[order[b]] })
	for k := 1; k < len(order); k++ {
		if ev.ID[order[k]] == ev.ID[order[k-1]] {
			return fmt.Errorf("store: adopting duplicate event %d", ev.ID[order[k]])
		}
	}

	oldN := db.Events.Len()
	var merged EventTable
	remap := make([]int32, oldN)
	oi, ni := 0, 0
	for oi < oldN || ni < len(order) {
		if ni >= len(order) || (oi < oldN && db.Events.ID[oi] < ev.ID[order[ni]]) {
			remap[oi] = int32(merged.Len())
			merged.ID = append(merged.ID, db.Events.ID[oi])
			merged.Day = append(merged.Day, db.Events.Day[oi])
			merged.Interval = append(merged.Interval, db.Events.Interval[oi])
			merged.Country = append(merged.Country, db.Events.Country[oi])
			merged.NumArticles = append(merged.NumArticles, db.Events.NumArticles[oi])
			merged.FirstMention = append(merged.FirstMention, db.Events.FirstMention[oi])
			merged.SourceURL = append(merged.SourceURL, db.Events.SourceURL[oi])
			oi++
			continue
		}
		j := order[ni]
		merged.ID = append(merged.ID, ev.ID[j])
		merged.Day = append(merged.Day, ev.Day[j])
		merged.Interval = append(merged.Interval, ev.Interval[j])
		merged.Country = append(merged.Country, ev.Country[j])
		merged.NumArticles = append(merged.NumArticles, ev.NumArticles[j])
		merged.FirstMention = append(merged.FirstMention, ev.FirstMention[j])
		merged.SourceURL = append(merged.SourceURL, ev.SourceURL[j])
		ni++
	}
	for i, e := range db.Mentions.EventRow {
		db.Mentions.EventRow[i] = remap[e]
	}
	db.Events = merged
	db.buildPostings()
	db.buildTypedLUTs()
	return db.Validate()
}

// insertEvents merges ID-sorted new events into the event table and rewrites
// Mentions.EventRow across the row shift.
func (db *DB) insertEvents(newEvs []gdelt.Event, base int64) {
	oldN := db.Events.Len()
	var merged EventTable
	remap := make([]int32, oldN)
	oi, ni := 0, 0
	for oi < oldN || ni < len(newEvs) {
		if ni >= len(newEvs) || (oi < oldN && db.Events.ID[oi] < newEvs[ni].GlobalEventID) {
			remap[oi] = int32(merged.Len())
			merged.ID = append(merged.ID, db.Events.ID[oi])
			merged.Day = append(merged.Day, db.Events.Day[oi])
			merged.Interval = append(merged.Interval, db.Events.Interval[oi])
			merged.Country = append(merged.Country, db.Events.Country[oi])
			merged.NumArticles = append(merged.NumArticles, db.Events.NumArticles[oi])
			merged.FirstMention = append(merged.FirstMention, db.Events.FirstMention[oi])
			merged.SourceURL = append(merged.SourceURL, db.Events.SourceURL[oi])
			oi++
			continue
		}
		ev := &newEvs[ni]
		iv := clampInterval(ev.DateAdded.IntervalIndex()-base, db.Meta.Intervals)
		merged.ID = append(merged.ID, ev.GlobalEventID)
		merged.Day = append(merged.Day, ev.Day)
		merged.Interval = append(merged.Interval, iv)
		merged.Country = append(merged.Country, int16(gdelt.CountryIndex(ev.ActionCountry)))
		merged.NumArticles = append(merged.NumArticles, 0)
		// FirstMention falls back to the event interval until a mention
		// arrives, matching Finish's treatment of mention-less events.
		merged.FirstMention = append(merged.FirstMention, iv)
		merged.SourceURL = append(merged.SourceURL, ev.SourceURL)
		ni++
	}
	for i, e := range db.Mentions.EventRow {
		db.Mentions.EventRow[i] = remap[e]
	}
	db.Events = merged
}
