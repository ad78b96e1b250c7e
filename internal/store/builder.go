package store

import (
	"fmt"
	"sort"

	"gdeltmine/internal/gdelt"
)

// Builder accumulates raw event and mention records and assembles the
// immutable DB. It performs the cleaning, indexing and validation work of
// the paper's preprocessing tool.
type Builder struct {
	meta Meta
	base int64 // global interval index of capture interval 0

	sources *Dictionary
	report  *gdelt.ValidationReport

	// Event staging, keyed later by GlobalEventID.
	evID    []int64
	evDay   []int32
	evCtry  []int16
	evURL   []string
	evAdded []gdelt.Timestamp

	// Mention staging.
	mnEventID  []int64
	mnSource   []int32
	mnEvIv     []int64 // event capture interval (global offset, may precede archive)
	mnIv       []int32 // mention capture interval (archive-relative)
	mnDocLen   []int32
	mnTone     []float32
	mnConf     []int8
	duplicates int64
	dangling   int64
	dropped    int64

	gkg *gkgStaging
}

// BuildStats reports what the builder ingested and discarded.
type BuildStats struct {
	// DuplicateEvents counts event rows whose GlobalEventID was already
	// seen; the first record wins.
	DuplicateEvents int64
	// DanglingMentions counts mentions referencing an unknown event
	// (typically caused by missing-archive chunks) that were dropped.
	DanglingMentions int64
	// DroppedMentions counts non-web mentions and mentions with
	// out-of-range capture times that were dropped.
	DroppedMentions int64
}

// NewBuilder returns a builder for an archive starting at start and
// covering intervals capture intervals.
func NewBuilder(start gdelt.Timestamp, intervals int32) (*Builder, error) {
	if !start.Valid() {
		return nil, fmt.Errorf("store: invalid archive start %v", start)
	}
	if intervals <= 0 {
		return nil, fmt.Errorf("store: archive needs a positive interval count")
	}
	return &Builder{
		meta:    Meta{Start: start, Intervals: intervals},
		base:    start.IntervalIndex(),
		sources: NewDictionary(),
		report:  &gdelt.ValidationReport{},
	}, nil
}

// Report exposes the validation report being assembled; callers may record
// master-list and archive-level defects into it before Finish.
func (b *Builder) Report() *gdelt.ValidationReport { return b.report }

// AddEvent stages one parsed event row.
func (b *Builder) AddEvent(ev *gdelt.Event) {
	b.evID = append(b.evID, ev.GlobalEventID)
	b.evDay = append(b.evDay, ev.Day)
	b.evCtry = append(b.evCtry, int16(gdelt.CountryIndex(ev.ActionCountry)))
	b.evURL = append(b.evURL, ev.SourceURL)
	b.evAdded = append(b.evAdded, ev.DateAdded)
}

// AddMention stages one parsed mention row. Non-web mentions and mentions
// captured outside the archive span are dropped and counted.
func (b *Builder) AddMention(mn *gdelt.Mention) {
	if mn.MentionType != gdelt.MentionTypeWeb {
		b.dropped++
		return
	}
	iv := mn.MentionTime.IntervalIndex() - b.base
	if iv < 0 || iv >= int64(b.meta.Intervals) {
		b.dropped++
		b.report.Record(gdelt.DefectBadRow,
			fmt.Sprintf("mention of event %d at %v outside archive", mn.GlobalEventID, mn.MentionTime))
		return
	}
	b.mnEventID = append(b.mnEventID, mn.GlobalEventID)
	b.mnSource = append(b.mnSource, b.sources.Intern(mn.SourceName))
	b.mnEvIv = append(b.mnEvIv, mn.EventTime.IntervalIndex()-b.base)
	b.mnIv = append(b.mnIv, int32(iv))
	b.mnDocLen = append(b.mnDocLen, mn.DocLen)
	b.mnTone = append(b.mnTone, mn.DocTone)
	b.mnConf = append(b.mnConf, mn.Confidence)
}

// Finish assembles the immutable DB: deduplicates and sorts events, drops
// dangling mentions, sorts mentions by capture interval, recounts per-event
// articles, computes delays, validates (Table II), and builds the postings
// and quarter indexes.
func (b *Builder) Finish() (*DB, BuildStats, error) {
	db := &DB{Meta: b.meta, Sources: b.sources, Report: b.report}

	// Deduplicate and sort events by id.
	order := make([]int32, len(b.evID))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, c int) bool { return b.evID[order[a]] < b.evID[order[c]] })
	rowOf := make(map[int64]int32, len(order))
	for _, o := range order {
		id := b.evID[o]
		if _, dup := rowOf[id]; dup {
			b.duplicates++
			continue
		}
		rowOf[id] = int32(db.Events.Len())
		db.Events.ID = append(db.Events.ID, id)
		db.Events.Day = append(db.Events.Day, b.evDay[o])
		db.Events.Country = append(db.Events.Country, b.evCtry[o])
		db.Events.SourceURL = append(db.Events.SourceURL, b.evURL[o])
		// Event interval provisional from DateAdded; refined from mention
		// EventTimeDate below (DateAdded is the first capture).
		iv := b.evAdded[o].IntervalIndex() - b.base
		db.Events.Interval = append(db.Events.Interval, clampInterval(iv, b.meta.Intervals))
	}
	ne := db.Events.Len()

	// Sort mention staging rows by capture interval (stable on input order).
	morder := make([]int32, len(b.mnIv))
	for i := range morder {
		morder[i] = int32(i)
	}
	sort.SliceStable(morder, func(a, c int) bool { return b.mnIv[morder[a]] < b.mnIv[morder[c]] })

	db.Events.NumArticles = make([]int32, ne)
	db.Events.FirstMention = make([]int32, ne)
	for i := range db.Events.FirstMention {
		db.Events.FirstMention[i] = -1
	}
	firstMentionTS := make([]gdelt.Timestamp, ne)

	for _, o := range morder {
		row, ok := rowOf[b.mnEventID[o]]
		if !ok {
			b.dangling++
			continue
		}
		evIv := b.mnEvIv[o]
		mnIv := b.mnIv[o]
		delay := int64(mnIv) - evIv + 1
		if delay < 0 {
			delay = 0
		}
		if delay > gdelt.MaxDelay {
			delay = gdelt.MaxDelay
		}
		db.Mentions.EventRow = append(db.Mentions.EventRow, row)
		db.Mentions.Source = append(db.Mentions.Source, b.mnSource[o])
		db.Mentions.Interval = append(db.Mentions.Interval, mnIv)
		db.Mentions.Delay = append(db.Mentions.Delay, int32(delay))
		db.Mentions.DocLen = append(db.Mentions.DocLen, b.mnDocLen[o])
		db.Mentions.Tone = append(db.Mentions.Tone, b.mnTone[o])
		db.Mentions.Confidence = append(db.Mentions.Confidence, b.mnConf[o])

		db.Events.NumArticles[row]++
		if db.Events.FirstMention[row] < 0 {
			db.Events.FirstMention[row] = mnIv
			firstMentionTS[row] = gdelt.IntervalStart(b.base + int64(mnIv))
			// Refine the event interval from the mention's EventTimeDate.
			db.Events.Interval[row] = clampInterval(evIv, b.meta.Intervals)
		}
	}

	// Per-event validation (missing URL, future event date).
	for i := 0; i < ne; i++ {
		ev := gdelt.Event{
			GlobalEventID: db.Events.ID[i],
			Day:           db.Events.Day[i],
			SourceURL:     db.Events.SourceURL[i],
		}
		gdelt.ValidateEvent(b.report, &ev, firstMentionTS[i])
		if db.Events.FirstMention[i] < 0 {
			db.Events.FirstMention[i] = db.Events.Interval[i]
		}
	}

	db.buildSourceCountries()
	db.buildPostings()
	db.buildQuarterIndex()
	db.buildTypedLUTs()
	if err := b.finishGKG(db); err != nil {
		return nil, BuildStats{}, err
	}

	stats := BuildStats{DuplicateEvents: b.duplicates, DanglingMentions: b.dangling, DroppedMentions: b.dropped}
	if err := db.Validate(); err != nil {
		return nil, stats, err
	}
	return db, stats, nil
}

func clampInterval(iv int64, n int32) int32 {
	if iv < 0 {
		return 0
	}
	if iv >= int64(n) {
		return n - 1
	}
	return int32(iv)
}

func (db *DB) buildSourceCountries() {
	db.SourceCountry = make([]int16, db.Sources.Len())
	for s, name := range db.Sources.Names() {
		db.SourceCountry[s] = int16(gdelt.CountryFromDomain(name))
	}
}

// buildPostings builds the by-source and by-event mention indexes with two
// counting sorts over the interval-sorted mention table, so every posting
// list is ascending by interval.
func (db *DB) buildPostings() {
	nm := db.Mentions.Len()
	ns := db.Sources.Len()
	ne := db.Events.Len()

	db.bySourcePtr = make([]int64, ns+1)
	for _, s := range db.Mentions.Source {
		db.bySourcePtr[s+1]++
	}
	for s := 0; s < ns; s++ {
		db.bySourcePtr[s+1] += db.bySourcePtr[s]
	}
	db.bySourceIdx = make([]int32, nm)
	cur := make([]int64, ns)
	for i := 0; i < nm; i++ {
		s := db.Mentions.Source[i]
		db.bySourceIdx[db.bySourcePtr[s]+cur[s]] = int32(i)
		cur[s]++
	}

	db.byEventPtr = make([]int64, ne+1)
	for _, e := range db.Mentions.EventRow {
		db.byEventPtr[e+1]++
	}
	for e := 0; e < ne; e++ {
		db.byEventPtr[e+1] += db.byEventPtr[e]
	}
	db.byEventIdx = make([]int32, nm)
	ecur := make([]int64, ne)
	for i := 0; i < nm; i++ {
		e := db.Mentions.EventRow[i]
		db.byEventIdx[db.byEventPtr[e]+ecur[e]] = int32(i)
		ecur[e]++
	}

	db.buildSourceBitmaps()
}

// buildTypedLUTs widens the int16 remap columns to the int32 lookup tables
// the vectorized kernels index directly (quarter of interval, country of
// source, country of event). Built once per assembly; ~4 bytes per
// interval/source/event, negligible next to the mention table.
func (db *DB) buildTypedLUTs() {
	db.quarterLUT = make([]int32, len(db.quarterOfInterval))
	for i, q := range db.quarterOfInterval {
		db.quarterLUT[i] = int32(q)
	}
	db.sourceCountryLUT = make([]int32, len(db.SourceCountry))
	for i, c := range db.SourceCountry {
		db.sourceCountryLUT[i] = int32(c)
	}
	db.eventCountryLUT = make([]int32, db.Events.Len())
	for i, c := range db.Events.Country {
		db.eventCountryLUT[i] = int32(c)
	}
}

// buildQuarterIndex maps every capture interval to its calendar quarter and
// records the first mention row of each quarter.
func (db *DB) buildQuarterIndex() {
	n := int(db.Meta.Intervals)
	db.quarterOfInterval = make([]int16, n)
	baseAbs := db.Meta.Start.Year()*4 + (db.Meta.Start.Month()-1)/3
	// Walk day by day; all 96 intervals of a day share a quarter.
	t := db.Meta.Start.Time()
	day := 0
	for iv := 0; iv < n; iv += gdelt.IntervalsPerDay {
		dt := t.AddDate(0, 0, day)
		q := dt.Year()*4 + (int(dt.Month())-1)/3 - baseAbs
		for k := iv; k < iv+gdelt.IntervalsPerDay && k < n; k++ {
			db.quarterOfInterval[k] = int16(q)
		}
		day++
	}
	db.quarters = int(db.quarterOfInterval[n-1]) + 1

	db.quarterRow = make([]int64, db.quarters+1)
	nm := db.Mentions.Len()
	for q := 1; q <= db.quarters; q++ {
		// First mention row whose quarter >= q.
		db.quarterRow[q] = int64(sort.Search(nm, func(i int) bool {
			return int(db.quarterOfInterval[db.Mentions.Interval[i]]) >= q
		}))
	}
	db.quarterRow[db.quarters] = int64(nm)

	db.buildQuarterBitmaps()
}
