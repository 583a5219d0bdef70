package experiments

import (
	"fmt"
	"math"

	"avfs/internal/sim"
	"avfs/internal/wlgen"
)

// replayArrivals drives machine m through workload wl's arrival schedule
// until every arrival is submitted and the machine drains idle. It
// registers the next pending arrival as a tick boundary, so the simulator
// may coalesce steady ticks between arrivals but always hands control back
// on the tick an arrival is due (submission instants are identical to
// per-tick stepping). label names the run in error messages.
func replayArrivals(m *sim.Machine, wl *wlgen.Workload, label string) error {
	next := 0
	limit := wl.Duration*3 + 3600
	m.OnTickBounded(nil, func() float64 {
		if next < len(wl.Arrivals) {
			return wl.Arrivals[next].At
		}
		return math.Inf(1)
	})
	for {
		for next < len(wl.Arrivals) && wl.Arrivals[next].At <= m.Now() {
			a := wl.Arrivals[next]
			if _, err := m.Submit(a.Bench, a.Threads); err != nil {
				return fmt.Errorf("experiments: %s: submit %s: %w", label, a.Bench.Name, err)
			}
			next++
		}
		if next == len(wl.Arrivals) && m.RunningCount() == 0 && m.PendingCount() == 0 {
			return nil
		}
		if m.Now() > limit {
			return fmt.Errorf("experiments: %s run exceeded %.0fs (running=%d pending=%d)",
				label, limit, m.RunningCount(), m.PendingCount())
		}
		m.Advance()
	}
}
