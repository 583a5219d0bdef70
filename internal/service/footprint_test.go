package service

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"avfs/api"
)

// BenchmarkSessionFootprint reports what one session holds in memory in
// the shape of perfbench's advance workload: eight sessions (both chips ×
// the four Table IV policies) with three processes each, after a 20 s
// preload ("setup_*") and after 40 more 120 s runs topped up to three
// processes ("long_*"). Per session: the live heap, and the retained
// decision-ring records with the bytes their slots take.
//
//	go test ./internal/service -run '^$' -bench SessionFootprint -benchtime 1x
func BenchmarkSessionFootprint(b *testing.B) {
	deck := []api.SubmitRequest{
		{Benchmark: "CG", Threads: 4}, {Benchmark: "mcf", Threads: 1}, {Benchmark: "LU", Threads: 4},
		{Benchmark: "lbm", Threads: 1}, {Benchmark: "namd", Threads: 1}, {Benchmark: "MG", Threads: 4},
		{Benchmark: "milc", Threads: 1}, {Benchmark: "FT", Threads: 4}, {Benchmark: "EP", Threads: 4},
	}
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		base := liveHeap()
		f, _ := testFleet(b, Config{})
		var ids []string
		next := 0
		topUp := func(id string) {
			s, err := f.Get(id)
			if err != nil {
				b.Fatal(err)
			}
			for have := s.Running + s.Pending; have < 3; have++ {
				if _, err := f.Submit(id, deck[next%len(deck)]); err != nil {
					b.Fatal(err)
				}
				next++
			}
		}
		for _, model := range []string{"xgene2", "xgene3"} {
			for _, policy := range []string{"baseline", "safe-vmin", "placement", "optimal"} {
				s := mustCreate(b, f, api.CreateSessionRequest{Model: model, Policy: policy})
				ids = append(ids, s.ID)
				topUp(s.ID)
				if _, err := f.RunSync(ctx, s.ID, api.RunRequest{Seconds: 20}); err != nil {
					b.Fatal(err)
				}
			}
		}
		report := func(prefix string) {
			per := float64(len(ids))
			b.ReportMetric((liveHeap()-base)/per/1024, prefix+"_heap_KB/session")
			var recs, slotBytes float64
			for _, id := range ids {
				s, err := f.lookup(id)
				if err != nil {
					b.Fatal(err)
				}
				items, _, _ := s.trace.Since(0)
				recs += float64(len(items))
				slotBytes += float64(ringCap(len(items), traceCap)) * float64(reflect.TypeOf(items).Elem().Size())
			}
			b.ReportMetric(recs/per, prefix+"_decisions/session")
			b.ReportMetric(slotBytes/per/1024, prefix+"_ring_KB/session")
		}
		report("setup")
		b.StartTimer()
		for round := 0; round < 40; round++ {
			for _, id := range ids {
				topUp(id)
				if _, err := f.RunSync(ctx, id, api.RunRequest{Seconds: 120}); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		report("long")
		f.Close()
	}
}

// ringCap is the backing-array capacity a ringbuf.Ring holding n items
// has grown to (it doubles from 16 up to its capacity).
func ringCap(n, capacity int) int {
	if n == 0 {
		return 0
	}
	c := 16
	for c < n {
		c *= 2
	}
	return min(c, capacity)
}

// liveHeap returns the live heap in bytes after a collection.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}
