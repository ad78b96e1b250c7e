// Package shard_test holds the shard tests that need the streaming layer:
// stream imports shard (Monitor.BindSharded), so these live outside the
// shard package to keep the import graph acyclic.
package shard_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"gdeltmine/internal/convert"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/qcache"
	"gdeltmine/internal/registry"
	"gdeltmine/internal/shard"
	"gdeltmine/internal/stream"
)

func buildSharded(t *testing.T, k int) *shard.DB {
	t.Helper()
	c, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	res, err := convert.FromCorpus(c)
	if err != nil {
		t.Fatal(err)
	}
	sdb, err := shard.Split(res.DB, k)
	if err != nil {
		t.Fatal(err)
	}
	return sdb
}

// TestTailAppendInvalidatesEveryWindow is the regression test for the
// stale-aggregate bug class the per-shard version vector exists to kill:
// a stream append lands in the tail shard, and every cached result must go
// stale — the full window because it reads the tail's rows, a cold window
// because answers read outside their window (postings, per-event metadata
// the append rewrites in cold shards). Before cache keys carried the whole
// version vector, a tail append could keep serving a stale cross-shard
// aggregate.
func TestTailAppendInvalidatesEveryWindow(t *testing.T) {
	sdb := buildSharded(t, 3)
	ex := &registry.Executor{Cache: qcache.New(0)}
	ex.Cache.SetStale(sdb.StaleKey)

	d := registry.MustLookup("count")
	p, err := d.ParseParams(func(string) []string { return nil })
	if err != nil {
		t.Fatal(err)
	}
	full := sdb.View()                                // crosses every shard, tail included
	cold := sdb.View().WithWindow(0, sdb.Bounds()[1]) // first shard only

	run := func(v *shard.View) qcache.Outcome {
		t.Helper()
		res, out, err := ex.ExecuteSharded(d, v, p)
		if err != nil {
			t.Fatal(err)
		}
		if res == nil {
			t.Fatal("nil result")
		}
		return out
	}

	if out := run(full); out != qcache.Miss {
		t.Fatalf("first full-window run: %v, want miss", out)
	}
	if out := run(full); out != qcache.Hit {
		t.Fatalf("second full-window run: %v, want hit", out)
	}
	if out := run(cold); out != qcache.Miss {
		t.Fatalf("first cold-window run: %v, want miss", out)
	}
	if out := run(cold); out != qcache.Hit {
		t.Fatalf("second cold-window run: %v, want hit", out)
	}

	// A feed chunk arrives: the monitor is bound to the sharded store, so
	// the append bumps ONLY the tail shard's version.
	mon := stream.NewMonitor(sdb.Meta().Start, stream.Config{})
	mon.BindSharded(sdb)
	tailBefore := sdb.Tail().Version()
	mon.MarkChunk(sdb.Meta().Start)
	if got := sdb.Tail().Version(); got != tailBefore+1 {
		t.Fatalf("tail version %d after MarkChunk, want %d", got, tailBefore+1)
	}
	if got := sdb.Part(0).Version(); got != 0 {
		t.Fatalf("cold shard version bumped to %d by a tail append", got)
	}

	if out := run(full); out != qcache.Miss {
		t.Fatalf("full-window run after tail append: %v, want miss (stale aggregate!)", out)
	}
	if out := run(cold); out != qcache.Miss {
		t.Fatalf("cold-window run after tail append: %v, want miss (stale cold window!)", out)
	}
	if out := run(cold); out != qcache.Hit {
		t.Fatalf("cold-window rerun after tail append: %v, want hit", out)
	}
}

// TestColdWindowCacheAfterAppendAllKinds runs every registered kind over a
// cold window (the first shard only), folds a chunk into the tail, and
// requires the cached executor's answer to equal an uncached execution.
// Many kinds read outside their window — event-table and postings scans,
// per-event metadata the append rewrites in cold shards — so a cache that
// kept cold-window entries across an append served stale answers.
func TestColdWindowCacheAfterAppendAllKinds(t *testing.T) {
	sdb := buildSharded(t, 3)
	ex := &registry.Executor{Cache: qcache.New(0)}
	ex.Cache.SetStale(sdb.StaleKey)
	var uncached *registry.Executor
	get := func(name string) []string {
		if name == "theme" && sdb.Themes() != nil && sdb.Themes().Len() > 0 {
			return []string{sdb.Themes().Name(0)}
		}
		return nil
	}
	cold := func(kind string) *shard.View {
		return sdb.View().WithWorkers(1).WithKind(kind).WithWindow(0, sdb.Bounds()[1])
	}
	var kinds []*registry.Descriptor
	params := map[string]registry.Params{}
	for _, d := range registry.All() {
		if d.NeedsGKG && !sdb.HasGKG() {
			continue
		}
		p, err := d.ParseParams(get)
		if err != nil {
			t.Fatalf("%s: %v", d.Kind, err)
		}
		if _, out, err := ex.ExecuteSharded(d, cold(d.Kind), p); err != nil || out != qcache.Miss {
			t.Fatalf("%s warmup: (%v, %v), want a miss", d.Kind, out, err)
		}
		kinds = append(kinds, d)
		params[d.Kind] = p
	}

	evs, mns, _ := tailChunk(t, sdb, sdb.Sources().Name(0))
	if _, err := sdb.AppendTail(evs, mns); err != nil {
		t.Fatal(err)
	}
	for _, d := range kinds {
		t.Run(d.Kind, func(t *testing.T) {
			got, _, err := ex.ExecuteSharded(d, cold(d.Kind), params[d.Kind])
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := uncached.ExecuteSharded(d, cold(d.Kind), params[d.Kind])
			if err != nil {
				t.Fatal(err)
			}
			gj, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			wj, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gj, wj) {
				t.Fatalf("cached cold-window answer is stale after an append:\ncached   %.300s\nuncached %.300s", gj, wj)
			}
		})
	}
}

// TestStaleKeyUnparseableWindow: keys whose window string the shard layer
// cannot re-derive (foreign formats, corruption) must read as stale — the
// conservative direction.
func TestStaleKeyUnparseableWindow(t *testing.T) {
	sdb := buildSharded(t, 2)
	for _, win := range []string{"", "0:10", "iv0:10", "ivx:y/v0", "iv0:10/vnope"} {
		k := qcache.Key{Kind: "count", Window: win}
		if !sdb.StaleKey(k) {
			t.Errorf("StaleKey(%q) = false, want true for unparseable window", win)
		}
	}
}

// TestWriteLoadRoundTrip pins the on-disk layout: WriteFiles then LoadFile
// reproduces a sharded DB that answers queries identically.
func TestWriteLoadRoundTrip(t *testing.T) {
	sdb := buildSharded(t, 3)
	path := t.TempDir() + "/world.shards"
	if err := shard.WriteFiles(path, sdb); err != nil {
		t.Fatal(err)
	}
	loaded, err := shard.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.K() != sdb.K() || loaded.EventCount() != sdb.EventCount() {
		t.Fatalf("loaded K=%d events=%d, want K=%d events=%d",
			loaded.K(), loaded.EventCount(), sdb.K(), sdb.EventCount())
	}
	a := sdb.View().Dataset()
	b := loaded.View().Dataset()
	if a != b {
		t.Fatalf("loaded dataset stats %+v differ from original %+v", b, a)
	}
}
