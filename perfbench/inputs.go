package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
)

// request is one query as a client sends it: a registered kind under
// /api/v1/ and its URL-encoded parameters (url.Values.Encode, so the
// spelling is canonical and the same seed gives byte-identical requests).
type request struct {
	Kind  string
	Query string
}

// Path is the request URI the client sends.
func (r request) Path() string {
	if r.Query == "" {
		return "/api/v1/" + r.Kind
	}
	return "/api/v1/" + r.Kind + "?" + r.Query
}

// Values decodes the parameters.
func (r request) Values() url.Values {
	v, err := url.ParseQuery(r.Query)
	if err != nil {
		panic(fmt.Sprintf("request %s: %v", r.Path(), err)) // built by this package, always valid
	}
	return v
}

// span describes the capture-interval range of a dataset: interval 0 is
// Start and there are Intervals of them.
type span struct {
	Start     gdelt.Timestamp
	Intervals int32
}

func spanOf(cfg gen.Config) span {
	return span{Start: cfg.Start, Intervals: int32(cfg.Days() * gdelt.IntervalsPerDay)}
}

// ts returns the timestamp of interval iv of the span, the spelling the
// from= and to= parameters take.
func (s span) ts(iv int32) string {
	return gdelt.IntervalStart(s.Start.IntervalIndex() + int64(iv)).String()
}

// The corpora are fixed: the seed varies the requests, not the data. The
// generator's power-law popularity makes query cost differ by a third
// between corpora of different seeds, which would swamp the differences
// between two versions of the program.

// servingConfig is the corpus behind scan and hot: the bench preset, about
// 440k mention rows, 137k events and 400 sources with GKG.
func servingConfig() gen.Config { return gen.Bench() }

// ingestTickIntervals is the feed tick of the ingest corpus: one file pair
// per 6 hours of capture time, so the default compactor (seal at one day
// of tail span) seals every fourth tick and appends between seals grow
// the tail.
const ingestTickIntervals = 24

// ingestConfig is the corpus behind ingest: the bench preset's world at
// four times its event rate over ten weeks, written as 6-hour ticks,
// without GKG (the append path folds events and mentions only) and without
// injected defects (a withheld archive would be a skipped tick).
func ingestConfig() gen.Config {
	c := gen.Bench()
	c.End = 20150501000000
	c.EventsPerDay *= 4
	c.GKG = false
	c.IntervalsPerFile = ingestTickIntervals
	c.DefectMalformedMaster = 0
	c.DefectMissingArchives = 0
	c.DefectMissingSourceURL = 0
	c.DefectFutureEventDate = 0
	return c
}

// writeInputs generates the corpus for cfg and writes it as a raw GDELT
// dataset under dir. Generation is the input generator's job; none of it
// is timed.
func writeInputs(cfg gen.Config, dir string) (*gen.Corpus, error) {
	c, err := gen.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generating corpus: %w", err)
	}
	if _, err := gen.WriteRaw(c, dir); err != nil {
		return nil, fmt.Errorf("writing raw dataset: %w", err)
	}
	return c, nil
}

// addHeadroom extends the world of the raw dataset under dir by extra
// capture intervals past its last chunk, by rewriting its dataset.info.
func addHeadroom(dir string, extra int32) error {
	path := filepath.Join(dir, gen.InfoFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var start string
	var intervals int64
	if _, err := fmt.Sscanf(string(data), "start %s\nintervals %d", &start, &intervals); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	info := fmt.Sprintf("start %s\nintervals %d\n", start, intervals+int64(extra))
	return os.WriteFile(path, []byte(info), 0o644)
}

// writePrefix makes dst a raw dataset holding the chunks of src captured
// before cut: the same dataset.info (so the build spans the whole world and
// later ticks can be appended), a master list cut at cut, and links to the
// chunk files it names.
func writePrefix(src, dst string, cut gdelt.Timestamp) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	if err := linkOrCopy(filepath.Join(src, gen.InfoFileName), filepath.Join(dst, gen.InfoFileName)); err != nil {
		return err
	}
	f, err := os.Open(filepath.Join(src, gen.MasterFileName))
	if err != nil {
		return err
	}
	defer f.Close()
	var kept strings.Builder
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		e, err := gdelt.ParseMasterEntry(sc.Text())
		if err != nil {
			return fmt.Errorf("master list of %s: %w", src, err)
		}
		iv, err := e.Interval()
		if err != nil {
			return fmt.Errorf("master list of %s: %w", src, err)
		}
		if iv >= cut {
			continue
		}
		kept.WriteString(sc.Text())
		kept.WriteByte('\n')
		name := filepath.Base(e.Path)
		if err := linkOrCopy(filepath.Join(src, name), filepath.Join(dst, name)); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dst, gen.MasterFileName), []byte(kept.String()), 0o644)
}

func linkOrCopy(src, dst string) error {
	if err := os.Link(src, dst); err == nil {
		return nil
	}
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// scanKinds is the scan mix: every panel kind and the ad-hoc query with a
// selective and a broad clause.
var scanKinds = []string{
	"country", "top-publishers", "coreport", "follow", "delays", "wildfires",
	"event-sizes", "quarterly-delay", "series-articles", "series-events",
	"series-active-sources", "series-slow-articles", "themes", "query-selective", "query-broad",
}

// kParamKinds take a k parameter.
var kParamKinds = map[string]bool{
	"country": true, "top-publishers": true, "coreport": true, "follow": true,
	"delays": true, "wildfires": true, "themes": true,
}

// Selective and broad where clauses of the ad-hoc query kind: the first
// keeps a few percent of articles through two bitmap-pushdown clauses,
// the second keeps most of them through a residual range clause.
var (
	selectiveWheres = []string{
		"sourcecountry=US and delay>2",
		"sourcecountry=UK and delay>96",
		"eventcountry=FR and doclen<2000",
		"sourcecountry=GM and tone<0",
	}
	broadWheres = []string{"delay>=1", "doclen>100", "tone>-100", "confidence>=0"}
	queryGroups = []string{"quarter", "sourcecountry", "eventcountry", "source"}
	queryAggs   = []string{"count", "sum:doclen", "mean:tone", "mean:delay"}
)

// randomRequest draws one request of kind name. Windows are at least a day
// long and land anywhere in the span; k is 5..20.
func randomRequest(rng *rand.Rand, sp span, name string) request {
	q := url.Values{}
	kind := name
	switch name {
	case "query-selective", "query-broad":
		kind = "query"
		if name == "query-selective" {
			q.Set("where", selectiveWheres[rng.IntN(len(selectiveWheres))])
		} else {
			q.Set("where", broadWheres[rng.IntN(len(broadWheres))])
		}
		q.Set("group", queryGroups[rng.IntN(len(queryGroups))])
		q.Set("agg", queryAggs[rng.IntN(len(queryAggs))])
	}
	if kParamKinds[kind] {
		q.Set("k", strconv.Itoa(5+rng.IntN(16)))
	}
	minLen := int32(gdelt.IntervalsPerDay)
	lo := rng.Int32N(sp.Intervals - minLen)
	hi := lo + minLen + rng.Int32N(sp.Intervals-lo-minLen+1)
	q.Set("from", sp.ts(lo))
	q.Set("to", sp.ts(hi))
	return request{Kind: kind, Query: q.Encode()}
}

// scanHeavy are the scan kinds whose requests cost several milliseconds
// of kernel work at any window; the rest cost one or two. Each heavy kind
// gets three shares of the scan mix and every other kind one, so the mix's
// median falls inside the dense band of heavy requests instead of in the
// gap between the two groups, where a small shift of rank moves it by
// half.
var scanHeavy = map[string]bool{
	"country": true, "coreport": true, "follow": true, "delays": true, "wildfires": true, "themes": true,
}

// scanSequence is the scan workload: n requests cycling through the mix,
// every kind its fixed number of shares per cycle in a seeded order, each
// request with its own random window and k, so nearly every request is a
// distinct cache key. Fixed shares keep the seed from shifting the mix.
func scanSequence(seed int64, sp span, n int) []request {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5ca9))
	var cycle []string
	for _, k := range scanKinds {
		cycle = append(cycle, k)
		if scanHeavy[k] {
			cycle = append(cycle, k, k)
		}
	}
	out := make([]request, 0, n)
	for len(out) < n {
		for _, i := range rng.Perm(len(cycle)) {
			if len(out) < n {
				out = append(out, randomRequest(rng, sp, cycle[i]))
			}
		}
	}
	return out
}

// hotKeys is the fixed key set of the hot workload: every scan kind at
// full range with default parameters (the ad-hoc query with the first
// selective and broad clause), then seeded windowed requests until there
// are 64 distinct keys. The full-range keys come first, so the Zipf draw
// makes them the hottest, and their cost does not depend on the seed.
func hotKeys(seed int64, sp span) []request {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x407))
	var keys []request
	seen := map[request]bool{}
	add := func(r request) {
		if !seen[r] {
			seen[r] = true
			keys = append(keys, r)
		}
	}
	for _, name := range scanKinds {
		add(fullRange(name))
	}
	for len(keys) < 64 {
		add(randomRequest(rng, sp, scanKinds[rng.IntN(len(scanKinds))]))
	}
	return keys
}

// fullRange is the full-range request of a scan-mix kind with default
// parameters.
func fullRange(name string) request {
	q := url.Values{}
	switch name {
	case "query-selective":
		q.Set("where", selectiveWheres[0])
		q.Set("group", queryGroups[0])
		return request{Kind: "query", Query: q.Encode()}
	case "query-broad":
		q.Set("where", broadWheres[0])
		q.Set("group", queryGroups[0])
		return request{Kind: "query", Query: q.Encode()}
	}
	return request{Kind: name}
}

// zipfSequence draws n indexes into m keys with Zipf skew s: key 0 is the
// hottest. The draw is by inverse CDF over precomputed weights, so it is
// deterministic in the seed.
func zipfSequence(seed int64, m, n int, s float64) []int {
	cdf := make([]float64, m)
	total := 0.0
	for i := range cdf {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 0x21bf))
	out := make([]int, n)
	for i := range out {
		u := rng.Float64() * total
		lo, hi := 0, m-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		out[i] = lo
	}
	return out
}

// ingestKinds is the concurrent query mix of ingest (no GKG kinds: the
// ingest corpus has none).
var ingestKinds = []string{
	"country", "top-publishers", "delays", "event-sizes", "quarterly-delay",
	"series-articles", "series-active-sources", "query-selective",
}

// ingestSequence is the query client's cycle during ingest: per kind, with
// default parameters, a tail-window request (the last three days of the
// world) and a full-range request. Both overlap the tail shard, so every
// tick invalidates them. Each cycle sends every one of them once, in a
// seeded order.
func ingestSequence(seed int64, sp span, n int) []request {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x1e57))
	tail := sp.Intervals - 3*gdelt.IntervalsPerDay
	var base []request
	for _, name := range ingestKinds {
		r := fullRange(name)
		v := r.Values()
		base = append(base, r)
		v.Set("from", sp.ts(tail))
		v.Set("to", sp.ts(sp.Intervals))
		base = append(base, request{Kind: r.Kind, Query: v.Encode()})
	}
	out := make([]request, 0, n)
	for len(out) < n {
		for _, i := range rng.Perm(len(base)) {
			if len(out) < n {
				out = append(out, base[i])
			}
		}
	}
	return out
}

// distinct returns the requests of seq in first-seen order without repeats.
func distinct(seq []request) []request {
	seen := make(map[request]bool, len(seq))
	var out []request
	for _, r := range seq {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}
