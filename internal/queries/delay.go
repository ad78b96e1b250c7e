package queries

import (
	"gdeltmine/internal/engine"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/parallel"
	"gdeltmine/internal/stats"
)

// SourceDelayStats is one publisher's row of Table VIII.
type SourceDelayStats struct {
	Source   int32
	Name     string
	Articles int64
	Min      int64
	Max      int64
	Average  float64
	Median   int64
}

// PublisherDelays computes per-source delay statistics for the given
// sources (Table VIII uses the top-10 publishers; Figure 9 uses all
// sources). The scan is parallel over sources via the postings index; each
// chunk of sources reuses one MedianSample.
func PublisherDelays(e *engine.Engine, sources []int32) []SourceDelayStats {
	db := e.DB()
	out := make([]SourceDelayStats, len(sources))
	parallel.ForOpt(len(sources), e.ScanOptions(), func(lo, hi int) {
		ms := stats.NewMedianSample(gdelt.MaxDelay)
		for i := lo; i < hi; i++ {
			s := sources[i]
			rows := db.SourceMentions(s)
			ms.Reset(len(rows))
			ms.AddRows(db.Mentions.Delay, rows)
			out[i] = SourceDelays(s, db.Sources.Name(s), ms)
		}
	})
	return out
}

// SourceDelays shapes one Table VIII row from a source's delay sample.
func SourceDelays(src int32, name string, ms *stats.MedianSample) SourceDelayStats {
	sum := ms.Summary()
	st := SourceDelayStats{Source: src, Name: name, Articles: sum.N}
	if sum.N > 0 {
		st.Min, st.Max, st.Average, st.Median = sum.Min, sum.Max, sum.Mean(), ms.Median()
	}
	return st
}

// DelayDistribution is Figure 9: for every source with at least one
// article, the distribution of its minimum, average, median and maximum
// delay, as log-binned histograms (base 2 over [1, gdelt.MaxDelay]) plus the raw
// per-source statistics.
type DelayDistribution struct {
	PerSource []SourceDelayStats
	Min       *stats.LogHistogram
	Average   *stats.LogHistogram
	Median    *stats.LogHistogram
	Max       *stats.LogHistogram
}

// delayHistBuckets covers 1..2^17 = 131072 > gdelt.MaxDelay.
const delayHistBuckets = 17

// DelayDistributionAll computes Figure 9 over all sources.
func DelayDistributionAll(e *engine.Engine) *DelayDistribution {
	db := e.DB()
	all := make([]int32, db.Sources.Len())
	for s := range all {
		all[s] = int32(s)
	}
	per := PublisherDelays(e, all)
	out := &DelayDistribution{
		Min:     stats.NewLogHistogram(2, delayHistBuckets),
		Average: stats.NewLogHistogram(2, delayHistBuckets),
		Median:  stats.NewLogHistogram(2, delayHistBuckets),
		Max:     stats.NewLogHistogram(2, delayHistBuckets),
	}
	for _, st := range per {
		if st.Articles == 0 {
			continue
		}
		out.PerSource = append(out.PerSource, st)
		out.Min.Add(float64(st.Min))
		out.Average.Add(st.Average)
		out.Median.Add(float64(st.Median))
		out.Max.Add(float64(st.Max))
	}
	return out
}

// QuarterlyDelay is Figure 10: the average and median publishing delay of
// all articles published in each quarter.
type QuarterlyDelay struct {
	Labels  []string
	Average []float64
	Median  []int64
}

// QuarterlyDelays computes Figure 10. Each quarter's median is exact,
// computed from a value->count table over the quarter's mention range; the
// quarters are processed in parallel.
func QuarterlyDelays(e *engine.Engine) QuarterlyDelay {
	db := e.DB()
	nq := db.NumQuarters()
	out := QuarterlyDelay{
		Labels:  quarterLabels(e),
		Average: make([]float64, nq),
		Median:  make([]int64, nq),
	}
	parallel.ForOpt(nq, scanOptGrain1(e), func(qlo, qhi int) {
		ct := stats.NewCountTable(gdelt.MaxDelay)
		for q := qlo; q < qhi; q++ {
			for i := range ct.Counts {
				ct.Counts[i] = 0
			}
			ct.N = 0
			lo, hi := db.QuarterMentionRange(q)
			for r := lo; r < hi; r++ {
				ct.Add(int64(db.Mentions.Delay[r]))
			}
			if ct.N > 0 {
				out.Average[q] = ct.Mean()
				out.Median[q] = ct.Median()
			}
		}
	})
	return out
}

// SlowArticlesPerQuarter computes Figure 11: the number of articles per
// quarter with a publishing delay of more than 24 hours.
func SlowArticlesPerQuarter(e *engine.Engine) QuarterlySeries {
	db := e.DB()
	// Vectorized filter→aggregate: the predicate stage selects delayed rows
	// into pooled selection vectors, the aggregation stage groups them by
	// quarter via the interval→quarter remap table.
	vals := e.GroupCountColSel(db.NumQuarters(), db.Mentions.Interval, db.QuarterLUT(),
		engine.PredGT(db.Mentions.Delay, gdelt.IntervalsPerDay))
	return QuarterlySeries{Labels: quarterLabels(e), Values: vals}
}
