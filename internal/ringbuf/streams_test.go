package ringbuf_test

import (
	"testing"

	"avfs/internal/ringbuf"
	"avfs/internal/sim"
	"avfs/internal/telemetry"
)

// fullAppendAllocs fills a ring of capacity items past its bound, then
// measures the allocations of one more append.
func fullAppendAllocs(capacity int, appendOne func(n int64)) float64 {
	n := int64(0)
	for ; n < int64(capacity)+3; n++ {
		appendOne(n)
	}
	return testing.AllocsPerRun(1000, func() {
		appendOne(n)
		n++
	})
}

// TestStreamAppendsAllocationFree: appending to a full ring allocates
// nothing for request spans (through SpanRing, which also fills the span
// ID) or machine events. The session decision path has its own check in
// internal/service (TestAppendTraceFullRingConstant).
func TestStreamAppendsAllocationFree(t *testing.T) {
	spans := telemetry.NewSpanRing(256)
	events := ringbuf.New[sim.Event](256)
	for _, tc := range []struct {
		name      string
		appendOne func(n int64)
	}{
		{"spans", func(n int64) {
			spans.Append(telemetry.Span{Name: "sim.advance", Session: "s-1", StartNs: n})
		}},
		{"events", func(n int64) {
			events.Append(sim.Event{At: float64(n), Kind: sim.EvFreq, Proc: -1, From: 3000, To: 1500})
		}},
	} {
		if allocs := fullAppendAllocs(256, tc.appendOne); allocs != 0 {
			t.Errorf("%s: append to a full ring allocates %v times", tc.name, allocs)
		}
	}
}
