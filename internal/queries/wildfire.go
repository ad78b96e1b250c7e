package queries

import (
	"sort"

	"gdeltmine/internal/engine"
	"gdeltmine/internal/parallel"
)

// Wildfire is a fast-spreading event candidate: an event picked up by many
// distinct sources within a short window of its occurrence. Digital
// wildfires — fast-spreading (mis)information with real-world impact — are
// the paper's motivating phenomenon; the fast core of near-real-time
// sources (Section VI-E) is where they ignite.
type Wildfire struct {
	EventRow  int32
	EventID   int64
	SourceURL string
	// EarlySources is the number of distinct sources reporting within the
	// window.
	EarlySources int
	// EarlyArticles is the number of articles within the window.
	EarlyArticles int
	// TotalArticles is the event's full article count.
	TotalArticles int32
	// Velocity is EarlySources divided by the window length in intervals:
	// distinct sources ignited per 15 minutes.
	Velocity float64
}

// FastSpreadingEvents ranks events by how many distinct sources covered
// them within window capture intervals of the event, returning the top k
// with at least minSources early reporters. The scan is parallel over
// events.
func FastSpreadingEvents(e *engine.Engine, window int32, minSources, k int) []Wildfire {
	db := e.DB()
	if window < 1 {
		window = 1
	}
	candidates := parallel.MapReduce(db.Events.Len(), e.ScanOptions(),
		func() []Wildfire { return nil },
		func(acc []Wildfire, lo, hi int) []Wildfire {
			// stamp[s] == gen marks source s as seen on the current event,
			// so moving to the next event is one increment, not a clear.
			stamp := make([]int32, db.Sources.Len())
			var gen int32
			for ev := lo; ev < hi; ev++ {
				rows := db.EventMentions(int32(ev))
				if len(rows) < minSources {
					continue
				}
				cutoff := db.Events.Interval[ev] + window
				gen++
				early, distinct := 0, 0
				for _, r := range rows {
					if db.Mentions.Interval[r] >= cutoff {
						break // postings are interval-sorted
					}
					early++
					if s := db.Mentions.Source[r]; stamp[s] != gen {
						stamp[s] = gen
						distinct++
					}
				}
				if distinct < minSources {
					continue
				}
				acc = append(acc, Wildfire{
					EventRow:      int32(ev),
					EventID:       db.Events.ID[ev],
					SourceURL:     db.Events.SourceURL[ev],
					EarlySources:  distinct,
					EarlyArticles: early,
					TotalArticles: db.Events.NumArticles[ev],
					Velocity:      float64(distinct) / float64(window),
				})
			}
			return acc
		},
		func(dst, src []Wildfire) []Wildfire { return append(dst, src...) },
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
