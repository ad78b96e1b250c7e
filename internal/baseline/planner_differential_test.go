package baseline

import (
	"fmt"
	"testing"

	"gdeltmine/internal/engine"
	"gdeltmine/internal/queries"
	"gdeltmine/internal/registry"
	"gdeltmine/internal/shard"
)

// Planner differential battery: the cost-based planner (DESIGN.md §12) may
// pick any physical plan for a selection query — bitmap-pruned rows,
// candidate events, or the closure scan — so every plan, forced through
// WithPlan, must produce results identical to the closure reference on
// every eligible kind: monolithic and sharded, 2 seeded worlds, workers
// {1,4}, K ∈ {1,4} shards. Integers exact, floats 1e-9 (workers=1
// bit-equal). Cache executors are nil throughout: the plan parameter is
// excluded from cache keys precisely because results are plan-invariant,
// which is the property pinned here.

var plannerModes = []engine.PlanMode{
	engine.PlanAuto, engine.PlanRows, engine.PlanEvents, engine.PlanScan,
}

// plannerPanels returns the source selections the battery runs on: a dense
// top-16 panel (high selectivity, auto resolves to events), a sparse
// mid-spectrum panel (auto resolves to rows), so both auto branches and
// both forced paths see real work, and a dense panel repeating source ids,
// whose shadowed positions every plan must leave all-zero.
func plannerPanels(ranked []int32) map[string][]int32 {
	top := ranked[:min(16, len(ranked))]
	panels := map[string][]int32{
		"top16": top,
		"dup":   append(append([]int32(nil), top[:8]...), top[0], top[3], top[3], top[7]),
	}
	base := len(ranked) / 8
	if base+16 <= len(ranked) {
		panels["mid16"] = ranked[base : base+16]
	} else {
		panels["mid16"] = top
	}
	return panels
}

// shardSpanningPairs counts (event, source pair) co-reports among the panel
// that no single shard holds both halves of: the events on which a
// per-shard intersection of event bitmaps would undercount the pair.
func shardSpanningPairs(sdb *shard.DB, ids []int32) int {
	masks := map[int64][]uint64{} // event id -> per-panel-position shard mask
	for i := 0; i < sdb.K(); i++ {
		p := sdb.Part(i)
		for pos, src := range ids {
			ls := p.Sources.Lookup(sdb.Sources().Name(src))
			if ls < 0 {
				continue
			}
			p.SourceEventBitmap(ls).ForEach(func(le int32) {
				id := p.Events.ID[le]
				if masks[id] == nil {
					masks[id] = make([]uint64, len(ids))
				}
				masks[id][pos] |= 1 << uint(i)
			})
		}
	}
	n := 0
	for _, m := range masks {
		for a := range m {
			for b := a + 1; b < len(m); b++ {
				if m[a] != 0 && m[b] != 0 && m[a]&m[b] == 0 {
					n++
				}
			}
		}
	}
	return n
}

func TestPlannerDifferentialMonolith(t *testing.T) {
	for seedIdx, db := range kernelWorlds(t) {
		ranked, _ := queries.TopPublishers(engine.New(db), db.Sources.Len())
		for name, ids := range plannerPanels(ranked) {
			for _, w := range differentialWorkers {
				base := engine.New(db).WithWorkers(w)
				wantCo, err := queries.CoReportScan(base, ids)
				if err != nil {
					t.Fatal(err)
				}
				wantFo := queries.FollowReportScan(base, ids)
				for _, mode := range plannerModes {
					e := base.WithPlan(mode)
					prefix := fmt.Sprintf("world%d/%s/w%d/%s", seedIdx, name, w, mode)
					t.Run(prefix+"/coreport", func(t *testing.T) {
						got, err := queries.CoReport(e, ids)
						if err != nil {
							t.Fatal(err)
						}
						eqSeries(t, "pair", got.Pair.Data, wantCo.Pair.Data)
						eqSeries(t, "counts", got.EventCounts, wantCo.EventCounts)
						eqFloats(t, "jaccard", got.Jaccard.Data, wantCo.Jaccard.Data, w)
					})
					t.Run(prefix+"/follow", func(t *testing.T) {
						got := queries.FollowReport(e, ids)
						eqSeries(t, "N", got.N.Data, wantFo.N.Data)
						eqSeries(t, "articles", got.Articles, wantFo.Articles)
						eqFloats(t, "F", got.F.Data, wantFo.F.Data, w)
					})
				}
			}
		}
	}
}

// TestPlannerDifferentialSharded runs the planner battery over balanced
// K ∈ {1,4} splits and a skewed K=3 split (80/20, see skewedBounds) whose
// panel events span shards — the case where the events plan must intersect
// global event bitmaps, not per-shard ones.
func TestPlannerDifferentialSharded(t *testing.T) {
	for seedIdx, db := range kernelWorlds(t) {
		ranked, _ := queries.TopPublishers(engine.New(db), db.Sources.Len())
		for _, split := range []string{"K1", "K4", "K3skew"} {
			var sdb *shard.DB
			var err error
			switch split {
			case "K1":
				sdb, err = shard.Split(db, 1)
			case "K4":
				sdb, err = shard.Split(db, 4)
			default:
				sdb, err = shard.SplitAt(db, skewedBounds(db.Meta.Intervals, 3))
			}
			if err != nil {
				t.Fatalf("%s: %v", split, err)
			}
			if split == "K3skew" && shardSpanningPairs(sdb, plannerPanels(ranked)["top16"]) == 0 {
				t.Fatalf("world%d: no top16 co-report spans the skewed shards; the split proves nothing", seedIdx)
			}
			for name, ids := range plannerPanels(ranked) {
				refCo, err := queries.CoReportScan(engine.New(db).WithWorkers(1), ids)
				if err != nil {
					t.Fatal(err)
				}
				refFo := queries.FollowReportScan(engine.New(db).WithWorkers(1), ids)
				for _, w := range differentialWorkers {
					for _, mode := range plannerModes {
						v := sdb.View().WithWorkers(w).WithPlan(mode)
						prefix := fmt.Sprintf("world%d/%s/%s/w%d/%s", seedIdx, split, name, w, mode)
						t.Run(prefix+"/coreport", func(t *testing.T) {
							got, err := v.CoReport(ids)
							if err != nil {
								t.Fatal(err)
							}
							eqSeries(t, "pair", got.Pair.Data, refCo.Pair.Data)
							eqSeries(t, "counts", got.EventCounts, refCo.EventCounts)
							eqFloats(t, "jaccard", got.Jaccard.Data, refCo.Jaccard.Data, w)
						})
						t.Run(prefix+"/follow", func(t *testing.T) {
							got := v.FollowReport(ids)
							eqSeries(t, "N", got.N.Data, refFo.N.Data)
							eqSeries(t, "articles", got.Articles, refFo.Articles)
							eqFloats(t, "F", got.F.Data, refFo.F.Data, w)
						})
					}
				}
			}
		}
	}
}

// TestPlannerParamThroughRegistry pins the plan parameter's plumbing: for
// the eligible kinds, executions forced to each plan through the registry's
// common "plan" parameter must serialize to identical JSON (1e-9 floats),
// and an invalid value must be a parameter error. Executors are nil — the
// plan never reaches cache keys.
func TestPlannerParamThroughRegistry(t *testing.T) {
	db := kernelWorlds(t)[0]
	var ex *registry.Executor
	for _, kind := range []string{"coreport", "follow"} {
		d, ok := registry.Lookup(kind)
		if !ok {
			t.Fatalf("kind %q not registered", kind)
		}
		trees := map[string]any{}
		for _, plan := range []string{"scan", "rows", "events", "auto"} {
			get := func(name string) []string {
				if name == registry.ParamPlan {
					return []string{plan}
				}
				return nil
			}
			e, err := registry.DeriveEngine(engine.New(db).WithKind(kind), get)
			if err != nil {
				t.Fatal(err)
			}
			p, err := d.ParseParams(get)
			if err != nil {
				t.Fatal(err)
			}
			v, _, err := ex.Execute(d, e, p)
			if err != nil {
				t.Fatal(err)
			}
			trees[plan] = jsonTree(t, v)
		}
		for _, plan := range []string{"rows", "events", "auto"} {
			if err := eqTree(kind+"/"+plan, trees[plan], trees["scan"]); err != nil {
				t.Errorf("%s: plan %s disagrees with scan: %v", kind, plan, err)
			}
		}
	}
	if _, err := registry.DeriveEngine(engine.New(db),
		func(name string) []string {
			if name == registry.ParamPlan {
				return []string{"bogus"}
			}
			return nil
		}); err == nil || !registry.IsBadParam(err) {
		t.Fatalf("bogus plan value: got %v, want parameter error", err)
	}
}
