package registry

import (
	"testing"
	"time"

	"gdeltmine/internal/engine"
	"gdeltmine/internal/shard"
)

var benchSink any

// BenchmarkShardVsMonolith times one kind's K=1 sharded execution against
// its monolithic one on the small world at 2 workers, the two runs
// interleaved within every iteration so host noise lands on both sides.
// The k1/mono metric is the ratio the one-execution-path work tracks: the
// monolith path can only be deleted once every kind's sharded execution
// costs no more than it does.
//
//	go test ./internal/registry -run '^$' -bench ShardVsMonolith -benchtime 50x
func BenchmarkShardVsMonolith(b *testing.B) {
	db := testDB(b)
	sdb, err := shard.Split(db, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []string{"delays", "coreport", "wildfires"} {
		d := MustLookup(kind)
		p, err := d.ParseParams(func(string) []string { return nil })
		if err != nil {
			b.Fatal(err)
		}
		e := engine.New(db).WithWorkers(2).WithKind(kind)
		v := sdb.View().WithWorkers(2).WithKind(kind)
		b.Run(kind, func(b *testing.B) {
			var mono, sharded time.Duration
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				r, err := d.Run(e, p)
				t1 := time.Now()
				if err != nil {
					b.Fatal(err)
				}
				benchSink = r
				if r, err = d.RunSharded(v, p); err != nil {
					b.Fatal(err)
				}
				sharded += time.Since(t1)
				mono += t1.Sub(t0)
				benchSink = r
			}
			b.ReportMetric(float64(mono.Nanoseconds())/float64(b.N), "mono-ns/op")
			b.ReportMetric(float64(sharded.Nanoseconds())/float64(b.N), "k1-ns/op")
			b.ReportMetric(float64(sharded)/float64(mono), "k1/mono")
		})
	}
}
