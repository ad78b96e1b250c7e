package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestQuantileEdges(t *testing.T) {
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
	one := []float64{42}
	for _, q := range []float64{0, 0.5, 1} {
		if Quantile(one, q) != 42 {
			t.Fatalf("single-element quantile q=%v", q)
		}
	}
	xs := []float64{1, 2, 3, 4}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 4 {
		t.Fatal("extreme quantiles should be min/max")
	}
	if got := Quantile(xs, 0.5); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("median of 1..4 = %v, want 2.5", got)
	}
	if Quantile(xs, -1) != 1 || Quantile(xs, 2) != 4 {
		t.Fatal("out-of-range q should clamp")
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	if got := Quantile(xs, 0.25); math.Abs(got-20) > 1e-12 {
		t.Fatalf("q25 = %v want 20", got)
	}
	if got := Quantile(xs, 0.1); math.Abs(got-14) > 1e-12 {
		t.Fatalf("q10 = %v want 14", got)
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := Median(xs); got != 2 {
		t.Fatalf("median %v", got)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Median mutated its input")
	}
	if !math.IsNaN(Median(nil)) {
		t.Fatal("empty median should be NaN")
	}
}

func TestMedianInt64LowerMedian(t *testing.T) {
	if got := MedianInt64([]int64{5, 1, 3}); got != 3 {
		t.Fatalf("odd median %d", got)
	}
	if got := MedianInt64([]int64{4, 1, 3, 2}); got != 2 {
		t.Fatalf("even lower median %d, want 2", got)
	}
	if got := MedianInt64(nil); got != 0 {
		t.Fatalf("empty median %d", got)
	}
}

func TestCountingMedianMatchesMedianInt64(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return CountingMedian(nil, 0) == 0
		}
		counts := make([]int64, 256)
		vals := make([]int64, len(raw))
		for i, v := range raw {
			counts[v]++
			vals[i] = int64(v)
		}
		return CountingMedian(counts, int64(len(raw))) == MedianInt64(vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestP2QuantileSmallStreams(t *testing.T) {
	p := NewP2Quantile(0.5)
	if !math.IsNaN(p.Value()) {
		t.Fatal("empty P2 should be NaN")
	}
	for _, x := range []float64{5, 1, 3} {
		p.Add(x)
	}
	if got := p.Value(); got != 3 {
		t.Fatalf("buffered exact median = %v want 3", got)
	}
	if p.N() != 3 {
		t.Fatalf("N = %d", p.N())
	}
}

func TestP2QuantileApproximatesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, q := range []float64{0.1, 0.5, 0.9} {
		p := NewP2Quantile(q)
		xs := make([]float64, 50000)
		for i := range xs {
			xs[i] = rng.NormFloat64()*10 + 100
			p.Add(xs[i])
		}
		sort.Float64s(xs)
		exact := Quantile(xs, q)
		got := p.Value()
		if math.Abs(got-exact) > 0.5 {
			t.Fatalf("q=%v: P2=%v exact=%v", q, got, exact)
		}
	}
}

func TestP2QuantileMonotoneTransformSane(t *testing.T) {
	// On a sorted input stream the estimator must stay within observed range.
	p := NewP2Quantile(0.5)
	for i := 0; i < 1000; i++ {
		p.Add(float64(i))
	}
	if v := p.Value(); v < 0 || v > 999 {
		t.Fatalf("estimate %v outside data range", v)
	}
}

// TestMedianSampleMatchesSortedLowerMedian is the property behind the
// delay kernels: on both sides of the counting cutoff, and with one
// accumulator reused across every sample (so a dirty counting table would
// show), MedianSample's median equals the sorted lower median and its
// summary equals a direct fold.
func TestMedianSampleMatchesSortedLowerMedian(t *testing.T) {
	const maxValue = 35136 // the mention delay cap, gdelt.MaxDelay
	rng := rand.New(rand.NewSource(12))
	gens := map[string]func(i int) int64{
		"random":    func(int) int64 { return rng.Int63n(maxValue + 1) },
		"all-equal": func(int) int64 { return 42 },
		"zero-heavy": func(int) int64 {
			if rng.Intn(10) < 9 {
				return 0
			}
			return rng.Int63n(maxValue + 1)
		},
		"max-heavy": func(int) int64 {
			if rng.Intn(3) > 0 {
				return maxValue
			}
			return rng.Int63n(maxValue + 1)
		},
		"ascending": func(i int) int64 { return int64(i % (maxValue + 1)) },
	}
	sizes := []int{1, 2, 3, 4, 100, countingCutoff - 1, countingCutoff, countingCutoff + 1, 5000}
	ms := NewMedianSample(maxValue)
	for _, round := range []int{0, 1} { // round 1 reuses every dirty table
		for name, gen := range gens {
			for _, n := range sizes {
				vals := make([]int32, n)
				rows := make([]int32, n)
				var want IntSummary
				for i := range vals {
					vals[i] = int32(gen(i))
					want.Add(int64(vals[i]))
					rows[i] = int32(n - 1 - i) // postings visit vals in any order
				}
				// Fold in two row runs, as the sharded path folds one run
				// per shard.
				ms.Reset(n)
				ms.AddRows(vals, rows[:n/2])
				ms.AddRows(vals, rows[n/2:])
				sorted := make([]int64, n)
				for i, v := range vals {
					sorted[i] = int64(v)
				}
				sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
				if got, w := ms.Median(), sorted[(n-1)/2]; got != w {
					t.Fatalf("round %d %s n=%d: median %d, want %d", round, name, n, got, w)
				}
				if got := ms.Summary(); got != want {
					t.Fatalf("round %d %s n=%d: summary %+v, want %+v", round, name, n, got, want)
				}
			}
		}
	}
	ms.Reset(0)
	if ms.Median() != 0 || ms.Summary().N != 0 {
		t.Fatal("empty sample: want median 0 and N 0")
	}
}
