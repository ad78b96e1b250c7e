package stats

import (
	"math"
	"slices"
	"sort"
)

// Quantile returns the q-quantile (0 <= q <= 1) of sorted using linear
// interpolation between closest ranks (the "R-7" rule used by most
// statistics packages). sorted must be ascending. It returns NaN for an
// empty slice.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Median returns the median of an unsorted slice without modifying it.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	tmp := make([]float64, len(xs))
	copy(tmp, xs)
	sort.Float64s(tmp)
	return Quantile(tmp, 0.5)
}

// MedianInt64 returns the lower median of an unsorted int64 slice without
// modifying it. For even n it returns element n/2-1 of the sorted order,
// matching the integer "15-minute interval" medians reported in Table VIII.
func MedianInt64(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	tmp := slices.Clone(xs)
	slices.Sort(tmp)
	return tmp[(len(tmp)-1)/2]
}

// CountingMedian computes the lower median of a distribution given as counts
// per integer value: counts[v] observations of value v. Total observations
// must be supplied (callers usually track it alongside the counts). It runs
// in O(len(counts)) and is how per-source delay medians are computed without
// materializing one slice per source.
func CountingMedian(counts []int64, total int64) int64 {
	if total <= 0 {
		return 0
	}
	// Lower median rank, 1-based: ceil(total/2).
	rank := (total + 1) / 2
	var cum int64
	for v, c := range counts {
		cum += c
		if cum >= rank {
			return int64(v)
		}
	}
	return int64(len(counts) - 1)
}

// countingCutoff is the sample size from which MedianSample counts values
// instead of sorting them. A counting pass costs a clear of the whole table
// (gdelt.MaxDelay+1 words for delays) plus a walk up to the median value, about
// 8 µs on a 2-CPU x86-64 host, where sorting 512 delay-like values takes
// about as long and sorting 1024 takes 2.5 times longer.
const countingCutoff = 512

// MedianSample computes the exact count, min, max, mean and lower median of
// one sample of integers in [0, maxValue] at a time, reusing its storage
// across samples. Large samples fold into a value->count table and take
// CountingMedian, so no per-sample slice is sorted; small ones are sorted,
// because clearing the table would cost more than the sort. Out-of-range
// values clamp like CountTable.Add on the counting path; callers validate
// their inputs (store.DB.Validate bounds every mention delay).
type MedianSample struct {
	sum      IntSummary
	maxValue int
	counting bool
	ct       *CountTable
	buf      []int64
}

// NewMedianSample returns an accumulator for values in [0, maxValue]. The
// counting table is allocated on the first large sample.
func NewMedianSample(maxValue int) *MedianSample {
	return &MedianSample{maxValue: maxValue}
}

// Reset starts a new sample that will hold n values.
func (m *MedianSample) Reset(n int) {
	m.sum = IntSummary{}
	m.counting = n >= countingCutoff
	m.buf = m.buf[:0]
	if !m.counting {
		return
	}
	if m.ct == nil {
		m.ct = NewCountTable(m.maxValue)
	} else if m.ct.N > 0 {
		clear(m.ct.Counts)
		m.ct.N = 0
	}
}

// AddRows folds vals[r] for every r in rows into the current sample — the
// shape of a postings list over a column.
func (m *MedianSample) AddRows(vals []int32, rows []int32) {
	if len(rows) == 0 {
		return
	}
	s := m.sum
	if s.N == 0 {
		s.Min, s.Max = math.MaxInt64, math.MinInt64
	}
	if m.counting {
		counts, top := m.ct.Counts, int64(len(m.ct.Counts)-1)
		for _, r := range rows {
			v := int64(vals[r])
			s.Sum += v
			s.Min, s.Max = min(s.Min, v), max(s.Max, v)
			counts[min(max(v, 0), top)]++
		}
		m.ct.N += int64(len(rows))
	} else {
		for _, r := range rows {
			v := int64(vals[r])
			s.Sum += v
			s.Min, s.Max = min(s.Min, v), max(s.Max, v)
			m.buf = append(m.buf, v)
		}
	}
	s.N += int64(len(rows))
	m.sum = s
}

// Summary returns the count, sum, min and max of the current sample.
func (m *MedianSample) Summary() IntSummary { return m.sum }

// Median returns the lower median of the current sample, 0 when empty.
func (m *MedianSample) Median() int64 {
	if m.sum.N == 0 {
		return 0
	}
	if m.counting {
		return CountingMedian(m.ct.Counts, m.ct.N)
	}
	slices.Sort(m.buf)
	return m.buf[(len(m.buf)-1)/2]
}

// P2Quantile is the P² streaming quantile estimator (Jain & Chlamtac 1985):
// a five-marker approximation that uses O(1) memory per tracked quantile.
// It is used for progress reporting over streams too large to sort.
type P2Quantile struct {
	q       float64
	n       int64
	heights [5]float64
	pos     [5]float64
	desired [5]float64
	inc     [5]float64
	primed  bool
	initBuf []float64
}

// NewP2Quantile returns an estimator for the q-quantile, 0 < q < 1.
func NewP2Quantile(q float64) *P2Quantile {
	p := &P2Quantile{q: q}
	p.inc = [5]float64{0, q / 2, q, (1 + q) / 2, 1}
	return p
}

// Add folds one observation into the estimator.
func (p *P2Quantile) Add(x float64) {
	p.n++
	if !p.primed {
		p.initBuf = append(p.initBuf, x)
		if len(p.initBuf) == 5 {
			sort.Float64s(p.initBuf)
			copy(p.heights[:], p.initBuf)
			for i := range p.pos {
				p.pos[i] = float64(i + 1)
				p.desired[i] = 1 + p.inc[i]*4
			}
			p.primed = true
			p.initBuf = nil
		}
		return
	}
	// Locate cell k such that heights[k] <= x < heights[k+1].
	var k int
	switch {
	case x < p.heights[0]:
		p.heights[0] = x
		k = 0
	case x >= p.heights[4]:
		p.heights[4] = x
		k = 3
	default:
		for k = 0; k < 4; k++ {
			if x < p.heights[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		p.pos[i]++
	}
	for i := range p.desired {
		p.desired[i] += p.inc[i]
	}
	// Adjust interior markers.
	for i := 1; i <= 3; i++ {
		d := p.desired[i] - p.pos[i]
		if (d >= 1 && p.pos[i+1]-p.pos[i] > 1) || (d <= -1 && p.pos[i-1]-p.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1.0
			}
			h := p.parabolic(i, sign)
			if p.heights[i-1] < h && h < p.heights[i+1] {
				p.heights[i] = h
			} else {
				p.heights[i] = p.linear(i, sign)
			}
			p.pos[i] += sign
		}
	}
}

func (p *P2Quantile) parabolic(i int, d float64) float64 {
	return p.heights[i] + d/(p.pos[i+1]-p.pos[i-1])*
		((p.pos[i]-p.pos[i-1]+d)*(p.heights[i+1]-p.heights[i])/(p.pos[i+1]-p.pos[i])+
			(p.pos[i+1]-p.pos[i]-d)*(p.heights[i]-p.heights[i-1])/(p.pos[i]-p.pos[i-1]))
}

func (p *P2Quantile) linear(i int, d float64) float64 {
	di := int(d)
	return p.heights[i] + d*(p.heights[i+di]-p.heights[i])/(p.pos[i+di]-p.pos[i])
}

// Value returns the current quantile estimate. For fewer than five
// observations it falls back to the exact quantile of the buffered values.
func (p *P2Quantile) Value() float64 {
	if !p.primed {
		if len(p.initBuf) == 0 {
			return math.NaN()
		}
		tmp := make([]float64, len(p.initBuf))
		copy(tmp, p.initBuf)
		sort.Float64s(tmp)
		return Quantile(tmp, p.q)
	}
	return p.heights[2]
}

// N returns the number of observations folded in so far.
func (p *P2Quantile) N() int64 { return p.n }

// P2State is the full serializable state of a P2Quantile, used by the
// stream monitor's checkpoint/resume snapshot.
type P2State struct {
	Q       float64    `json:"q"`
	N       int64      `json:"n"`
	Heights [5]float64 `json:"heights"`
	Pos     [5]float64 `json:"pos"`
	Desired [5]float64 `json:"desired"`
	Primed  bool       `json:"primed"`
	InitBuf []float64  `json:"initBuf,omitempty"`
}

// State captures the estimator for checkpointing.
func (p *P2Quantile) State() P2State {
	return P2State{
		Q: p.q, N: p.n,
		Heights: p.heights, Pos: p.pos, Desired: p.desired,
		Primed:  p.primed,
		InitBuf: append([]float64(nil), p.initBuf...),
	}
}

// P2FromState rebuilds an estimator from a checkpointed state. Feeding the
// restored estimator the remaining observations yields exactly the value
// the uninterrupted estimator would have produced.
func P2FromState(st P2State) *P2Quantile {
	p := NewP2Quantile(st.Q)
	p.n = st.N
	p.heights = st.Heights
	p.pos = st.Pos
	p.desired = st.Desired
	p.primed = st.Primed
	p.initBuf = append([]float64(nil), st.InitBuf...)
	return p
}
