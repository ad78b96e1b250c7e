package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"

	"gdeltmine/internal/baseline"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/queries"
	"gdeltmine/internal/registry"
	"gdeltmine/internal/shard"
	"gdeltmine/internal/store"
)

// floatTol is the relative tolerance for floats; integers compare exactly.
const floatTol = 1e-9

// encodeJSON renders v the way the server's writeJSON does: indented by
// one space, newline-terminated.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// sameJSON reports whether two JSON documents carry the same answer: the
// same structure and keys, integers equal, floats within floatTol
// relative. The nil error means they match.
func sameJSON(got, want []byte) error {
	var g, w any
	if err := decodeNumbers(got, &g); err != nil {
		return fmt.Errorf("response is not JSON: %v", err)
	}
	if err := decodeNumbers(want, &w); err != nil {
		return fmt.Errorf("reference is not JSON: %v", err)
	}
	return sameValue("$", g, w)
}

func decodeNumbers(b []byte, v *any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	return dec.Decode(v)
}

func sameValue(path string, g, w any) error {
	switch w := w.(type) {
	case map[string]any:
		gm, ok := g.(map[string]any)
		if !ok || len(gm) != len(w) {
			return fmt.Errorf("%s: object shape differs", path)
		}
		for k, wv := range w {
			gv, ok := gm[k]
			if !ok {
				return fmt.Errorf("%s: missing key %q", path, k)
			}
			if err := sameValue(path+"."+k, gv, wv); err != nil {
				return err
			}
		}
		return nil
	case []any:
		ga, ok := g.([]any)
		if !ok || len(ga) != len(w) {
			return fmt.Errorf("%s: array length differs", path)
		}
		for i := range w {
			if err := sameValue(path+"["+strconv.Itoa(i)+"]", ga[i], w[i]); err != nil {
				return err
			}
		}
		return nil
	case json.Number:
		gn, ok := g.(json.Number)
		if !ok {
			return fmt.Errorf("%s: want number %s, got %v", path, w, g)
		}
		return sameNumber(path, gn, w)
	default:
		if g != w {
			return fmt.Errorf("%s: want %v, got %v", path, w, g)
		}
		return nil
	}
}

func sameNumber(path string, g, w json.Number) error {
	gi, gerr := strconv.ParseInt(string(g), 10, 64)
	wi, werr := strconv.ParseInt(string(w), 10, 64)
	if gerr == nil && werr == nil {
		if gi != wi {
			return fmt.Errorf("%s: want %d, got %d", path, wi, gi)
		}
		return nil
	}
	gf, gerr := strconv.ParseFloat(string(g), 64)
	wf, werr := strconv.ParseFloat(string(w), 64)
	if gerr != nil || werr != nil {
		return fmt.Errorf("%s: unparsable numbers %s, %s", path, g, w)
	}
	if math.Abs(gf-wf) > floatTol*math.Max(1, math.Max(math.Abs(gf), math.Abs(wf))) {
		return fmt.Errorf("%s: want %v, got %v", path, wf, gf)
	}
	return nil
}

// execRef runs one request through the single-worker, uncached
// Executor.ExecuteSharded path over base, the way the server parses it.
func execRef(base *shard.View, r request) ([]byte, error) {
	d, ok := registry.Lookup(r.Kind)
	if !ok {
		return nil, fmt.Errorf("unknown kind %q", r.Kind)
	}
	q := r.Values()
	p, err := d.ParseURLValues(q)
	if err != nil {
		return nil, err
	}
	v, err := registry.DeriveView(base.WithKind(d.Kind), func(name string) []string { return q[name] })
	if err != nil {
		return nil, err
	}
	res, _, err := (&registry.Executor{}).ExecuteSharded(d, v.WithWorkers(1), p)
	if err != nil {
		return nil, err
	}
	return encodeJSON(res)
}

// references computes the reference body of every request on a K=1 split
// of db, with the given number of goroutines sharing the list.
func references(db *store.DB, reqs []request, goroutines int) (map[request][]byte, error) {
	one, err := shard.Split(db, 1)
	if err != nil {
		return nil, err
	}
	base := one.View()
	return inParallel(reqs, goroutines, func(r request) ([]byte, error) { return execRef(base, r) })
}

// inParallel maps fn over keys with the given number of goroutines and
// returns the results by key, or the first error.
func inParallel[K comparable](keys []K, goroutines int, fn func(K) ([]byte, error)) (map[K][]byte, error) {
	out := make(map[K][]byte, len(keys))
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	work := make(chan K)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				b, err := fn(k)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference for %v: %w", k, err)
				}
				out[k] = b
				mu.Unlock()
			}
		}()
	}
	for _, k := range keys {
		work <- k
	}
	close(work)
	wg.Wait()
	return out, firstErr
}

// crossCheckRowStore checks the reference path against the generic row
// store on the kinds it covers, over the full range: the country cross
// matrix, the four quarterly series, event sizes and publisher counts.
// Both sides see the same db; the row store shares none of the engine's
// machinery.
func crossCheckRowStore(db *store.DB) error {
	one, err := shard.Split(db, 1)
	if err != nil {
		return err
	}
	base := one.View().WithWorkers(1)
	run := func(kind string, params map[string]string) (any, error) {
		d := registry.MustLookup(kind)
		p, err := d.ParseParams(func(name string) []string {
			if v, ok := params[name]; ok {
				return []string{v}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		return d.RunSharded(base.WithKind(kind), p)
	}
	rs := baseline.NewRowStore(db)

	v, err := run("country", map[string]string{"k": strconv.Itoa(len(gdelt.Countries))})
	if err != nil {
		return err
	}
	cr := v.(registry.CountryResult)
	cross := rs.CrossCountry()
	idx := make(map[string]int, len(gdelt.Countries))
	for i, c := range gdelt.Countries {
		idx[c.Name] = i
	}
	for i, rep := range cr.Reported {
		for j, pub := range cr.Publishing {
			if got, want := cr.Cross[i][j], cross.At(idx[rep], idx[pub]); got != want {
				return fmt.Errorf("country cross[%s][%s]: engine %d, row store %d", rep, pub, got, want)
			}
		}
	}

	series := []struct {
		kind string
		want []int64
	}{
		{"series-articles", rs.ArticlesPerQuarter()},
		{"series-events", rs.EventsPerQuarter()},
		{"series-active-sources", rs.ActiveSourcesPerQuarter()},
		{"series-slow-articles", rs.SlowArticlesPerQuarter(gdelt.IntervalsPerDay)},
	}
	for _, s := range series {
		v, err := run(s.kind, nil)
		if err != nil {
			return err
		}
		got := v.(queries.QuarterlySeries).Values
		if len(got) != len(s.want) {
			return fmt.Errorf("%s: engine has %d quarters, row store %d", s.kind, len(got), len(s.want))
		}
		for q := range got {
			if got[q] != s.want[q] {
				return fmt.Errorf("%s[%d]: engine %d, row store %d", s.kind, q, got[q], s.want[q])
			}
		}
	}

	v, err = run("event-sizes", nil)
	if err != nil {
		return err
	}
	sizes := v.(registry.EventSizeResult).Counts
	want := rs.EventSizeCounts()
	for x := 1; x < len(sizes); x++ {
		if sizes[x] != want[int64(x)] {
			return fmt.Errorf("event-sizes[%d]: engine %d, row store %d", x, sizes[x], want[int64(x)])
		}
	}
	for x, n := range want {
		if x >= int64(len(sizes)) && n != 0 {
			return fmt.Errorf("event-sizes: row store has %d events of size %d beyond the engine's range", n, x)
		}
	}

	const k = 20
	v, err = run("top-publishers", map[string]string{"k": strconv.Itoa(k)})
	if err != nil {
		return err
	}
	rows := v.([]registry.PublisherRow)
	bySource := rs.ArticleCountsBySource()
	top := baseline.TopCounts(bySource, k)
	if len(rows) != len(top) {
		return fmt.Errorf("top-publishers: engine %d rows, row store %d", len(rows), len(top))
	}
	for i, r := range rows {
		if r.Articles != top[i] || bySource[r.Source] != r.Articles {
			return fmt.Errorf("top-publishers rank %d (%s): engine %d, row store %d (source has %d)",
				i+1, r.Source, r.Articles, top[i], bySource[r.Source])
		}
	}
	return nil
}
