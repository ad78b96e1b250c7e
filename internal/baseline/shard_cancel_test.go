package baseline

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"gdeltmine/internal/gen"
	"gdeltmine/internal/registry"
	"gdeltmine/internal/shard"
)

// TestShardCancellationMidFanOut pins the executor's cancellation contract
// end to end through registry.ExecuteSharded: a request cancelled while
// its cross-shard fan-out is in flight must (1) return promptly with the
// context's error and a nil value — a partial aggregate must never surface
// as a complete result, which is what lets ExecuteSharded keep cancelled
// partials out of the cache; and (2) drain the pool without leaking
// goroutines — FanOut returns only after in-flight shard jobs finish, and
// the persistent pool spawns no per-query goroutines to orphan.
func TestShardCancellationMidFanOut(t *testing.T) {
	db := buildCorpus(t, gen.Small())
	sdb, err := shard.Split(db, 5)
	if err != nil {
		t.Fatal(err)
	}
	// country fans its cross-count and mask kernels out per shard; delays
	// and coreport run their own loops over sources and panel bitmaps,
	// which must honour the view context just the same.
	for _, kind := range []string{"country", "delays", "coreport"} {
		t.Run(kind, func(t *testing.T) {
			d := registry.MustLookup(kind)
			p, err := d.ParseParams(func(string) []string { return nil })
			if err != nil {
				t.Fatal(err)
			}
			var x *registry.Executor // nil executor: direct execution, no cache

			// Warm the process pool and measure the uncancelled wall time, then
			// settle the goroutine baseline.
			v := sdb.View().WithWorkers(4).WithKind(d.Kind)
			start := time.Now()
			if _, _, err := x.ExecuteSharded(d, v, p); err != nil {
				t.Fatal(err)
			}
			full := time.Since(start)
			runtime.GC()
			before := runtime.NumGoroutine()

			// Cancel at staggered points inside the query's execution window. Each
			// iteration must either complete (cancel landed too late) or fail with
			// context.Canceled and no value.
			cancelled := 0
			for i := 0; i < 25; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				delay := full * time.Duration(i%5) / 10 // 0%..40% of the full wall time
				timer := time.AfterFunc(delay, cancel)
				val, _, err := x.ExecuteSharded(d, sdb.View().WithWorkers(4).WithKind(d.Kind).WithContext(ctx), p)
				timer.Stop()
				if err != nil {
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("iteration %d: error %v, want context.Canceled", i, err)
					}
					if val != nil {
						t.Fatalf("iteration %d: cancelled execution surfaced a value", i)
					}
					cancelled++
				}
				cancel()
			}
			if cancelled == 0 {
				t.Log("no iteration observed cancellation mid-flight (query too fast on this host); prompt-return check below still applies")
			}

			// Prompt return: a pre-cancelled context must come back in a bounded
			// time — unclaimed shard jobs are skipped, not executed.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			start = time.Now()
			val, _, err := x.ExecuteSharded(d, sdb.View().WithWorkers(4).WithKind(d.Kind).WithContext(ctx), p)
			if err == nil || val != nil {
				t.Fatal("pre-cancelled execution returned a result")
			}
			if el := time.Since(start); el > full+2*time.Second {
				t.Fatalf("pre-cancelled fan-out took %v (uncancelled run: %v)", el, full)
			}

			// No goroutine leak: cancelled fan-outs drained the pool rather than
			// abandoning tasks, so the count settles back to the warm baseline.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before+3 && time.Now().Before(deadline) {
				runtime.Gosched()
				time.Sleep(time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before+3 {
				t.Fatalf("goroutines grew from %d to %d across cancelled fan-outs", before, after)
			}
		})
	}
}
