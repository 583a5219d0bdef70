package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"avfs/internal/chip"
	"avfs/internal/experiments"
	"avfs/internal/experiments/runner"
	"avfs/internal/sim"
	"avfs/internal/vmin/store"
	"avfs/internal/wlgen"
)

// goldenJSON pins the canonical Table III/IV rows. After an intended model
// change, regenerate it with --golden-out perfbench/golden.json.
//
//go:embed golden.json
var goldenJSON []byte

const (
	// canonicalSeed and campaignDuration are the paper reproduction's
	// Table III/IV settings (cmd/evaluate's defaults).
	canonicalSeed    = 42
	campaignDuration = 3600.0
	// campaignWorkers is the campaign width: one worker per CPU of the
	// reference machine.
	campaignWorkers = 2
	// warmupDuration is the canonical workload length the set-up replays
	// to warm the evaluation path.
	warmupDuration = 300.0
)

// goldenRow is one row of Table III (X-Gene 2) or Table IV (X-Gene 3).
type goldenRow struct {
	Chip        string  `json:"chip"`
	Config      string  `json:"config"`
	TimeS       float64 `json:"time_s"`
	EnergyJ     float64 `json:"energy_j"`
	AvgPowerW   float64 `json:"avg_power_w"`
	ED2P        float64 `json:"ed2p"`
	Emergencies int     `json:"emergencies"`
}

type goldenFile struct {
	Seed      int64       `json:"seed"`
	DurationS float64     `json:"duration_s"`
	Rows      []goldenRow `json:"rows"`
}

func chips() []*chip.Spec { return []*chip.Spec{chip.XGene2Spec(), chip.XGene3Spec()} }

// tableRows replays the canonical-seed workload of the given length on
// both chips under the four system configurations.
func tableRows(ctx context.Context, duration float64) ([]goldenRow, error) {
	cam := experiments.Campaign{Workers: campaignWorkers}
	var rows []goldenRow
	for _, spec := range chips() {
		wl := wlgen.Generate(spec, wlgen.Config{Duration: duration}, canonicalSeed)
		set, err := experiments.EvaluateAllContext(ctx, cam, spec, wl)
		if err != nil {
			return nil, fmt.Errorf("evaluate %s: %w", spec.Name, err)
		}
		for _, cfg := range experiments.SystemConfigs() {
			r := set.Results[cfg]
			rows = append(rows, goldenRow{
				Chip: spec.Name, Config: cfg.String(), TimeS: r.TimeSec, EnergyJ: r.EnergyJ,
				AvgPowerW: r.AvgPowerW, ED2P: r.ED2P, Emergencies: r.Emergencies,
			})
		}
	}
	return rows, nil
}

// writeGolden recomputes the canonical rows into path.
func writeGolden(ctx context.Context, path string) error {
	rows, err := tableRows(ctx, campaignDuration)
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(goldenFile{Seed: canonicalSeed, DurationS: campaignDuration, Rows: rows}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// checkGolden compares the canonical rows with the pinned golden values:
// integers exactly, the rest within energyTolerance relative.
func checkGolden(ctx context.Context, out *outcome) error {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	rows, err := tableRows(ctx, campaignDuration)
	if err != nil {
		return err
	}
	if len(rows) != len(g.Rows) {
		out.mismatch("%d Table III/IV rows, %d golden", len(rows), len(g.Rows))
		return nil
	}
	for i, r := range rows {
		w := g.Rows[i]
		out.attempted++
		if r.Chip != w.Chip || r.Config != w.Config || r.Emergencies != w.Emergencies ||
			!relClose(r.TimeS, w.TimeS) || !relClose(r.EnergyJ, w.EnergyJ) ||
			!relClose(r.AvgPowerW, w.AvgPowerW) || !relClose(r.ED2P, w.ED2P) {
			out.mismatch("%s %s: got %+v, golden %+v", w.Chip, w.Config, r, w)
		}
	}
	return nil
}

// campaignPool is the number of distinct 1-hour workloads the passes
// cycle through. A workload's cost varies several-fold with its wlgen
// seed, so every run seed draws from the same pool and only orders it:
// runs of different seeds then measure the same mix of work.
const campaignPool = 8

// passWorkloadSeed is the wlgen seed of pass p: entry p mod campaignPool
// of the p/campaignPool-th seeded shuffle of the pool.
func passWorkloadSeed(seed int64, p int) int64 {
	perm := seeded(seed, 4, int64(p/campaignPool)).Perm(campaignPool)
	return canonicalSeed + 1 + int64(perm[p%campaignPool])
}

// passResult is one campaign pass's measurements.
type passResult struct {
	wlSeed                       int64 // the pass's pool workload
	wall, evaluate, characterize time.Duration
	simS                         float64 // simulated seconds of the Table III/IV replays
	cells, cached                int64
	hits, misses                 int64
}

// campaignPass runs one pass: Tables III/IV on both chips over a 1-hour
// wlgen workload seeded from the run seed and the pass index, then
// Figures 3-5 at the paper's trial counts against a characterization
// store that is fresh for the pass and shared within it.
func campaignPass(ctx context.Context, seed int64, p int, tr *tracer) (passResult, error) {
	st := store.New("")
	stats := runner.NewStats()
	cam := experiments.Campaign{Workers: campaignWorkers, Store: st, Stats: stats}
	op := fmt.Sprintf("%spass-%d", opPrefix, p)
	wlSeed := passWorkloadSeed(seed, p)
	r := passResult{wlSeed: wlSeed}
	start := time.Now()
	for _, spec := range chips() {
		wl := wlgen.Generate(spec, wlgen.Config{Duration: campaignDuration}, wlSeed)
		t0 := time.Now()
		set, err := experiments.EvaluateAllContext(ctx, cam, spec, wl)
		d := time.Since(t0)
		if err != nil {
			return r, fmt.Errorf("evaluate %s: %w", spec.Name, err)
		}
		r.evaluate += d
		if tr.active() {
			tr.record(op, "campaign.evaluate", "", t0, d)
		}
		for _, res := range set.Results {
			r.simS += res.TimeSec
		}
	}
	figures := []func() error{
		func() error { _, err := experiments.Figure3Context(ctx, cam, 0); return err },
		func() error { _, err := experiments.Figure4Context(ctx, cam, 0); return err },
		func() error { _, err := experiments.Figure5Context(ctx, cam, 0); return err },
	}
	for i, fig := range figures {
		t0 := time.Now()
		err := fig()
		d := time.Since(t0)
		if err != nil {
			return r, fmt.Errorf("figure %d: %w", i+3, err)
		}
		r.characterize += d
		if tr.active() {
			tr.record(op, "campaign.characterize", "", t0, d)
		}
	}
	r.wall = time.Since(start)
	if tr.active() {
		tr.record(op, "campaign.pass", "", start, r.wall)
	}
	r.cells, r.cached = stats.Completed(), stats.CachedCells()
	r.hits, r.misses = st.Hits(), st.Misses()
	return r, nil
}

// campaignLoad runs campaign passes back to back.
type campaignLoad struct {
	o    options
	tr   *tracer
	next int // next pass index
}

func runCampaign(ctx context.Context, o options) (*outcome, error) {
	// Set-up decodes the golden rows and warms the evaluation path on a
	// short canonical workload.
	setup, _, err := setUp(func() (goldenFile, error) {
		var g goldenFile
		if err := json.Unmarshal(goldenJSON, &g); err != nil {
			return g, fmt.Errorf("golden.json: %w", err)
		}
		_, err := tableRows(ctx, warmupDuration)
		return g, err
	}, func(goldenFile) {})
	if err != nil {
		return nil, err
	}
	heap := liveHeapMB()
	l := &campaignLoad{o: o}
	out := newOutcome()
	if o.trace {
		if err := l.traced(ctx, out); err != nil {
			return nil, err
		}
	} else {
		passes, rec, elapsed, err := l.window(ctx, o.window())
		if err != nil {
			return nil, err
		}
		rec.endToEnd(out.metrics, setup, heap, elapsed)
		setPoolMetrics(out.metrics, passes)
		out.attempted = rec.attempted
	}
	if err := checkGolden(ctx, out); err != nil {
		return nil, err
	}
	return out, nil
}

// setPoolMetrics replaces the op metrics of a window by ones that do not
// hang on its mix: a pool workload's passes cost alike, but the pool's
// workloads differ up to 4x, and a window ends part-way through a cycle of
// the pool. op_mean_ms is the mean over the pool's workloads of each one's
// mean pass time, ops_per_s its inverse and sim_s_per_host_s the pool's
// simulated seconds over the sum of those means.
func setPoolMetrics(m map[string]float64, passes []passResult) {
	wall := map[int64][]float64{}
	simS := map[int64]float64{}
	for _, p := range passes {
		wall[p.wlSeed] = append(wall[p.wlSeed], ms(p.wall))
		simS[p.wlSeed] = p.simS
	}
	var sumMs, sumSim float64
	for seed, xs := range wall {
		sumMs += mean(xs)
		sumSim += simS[seed]
	}
	passMs := sumMs / float64(len(wall))
	m["op_mean_ms"] = passMs
	m["ops_per_s"] = 1e3 / passMs
	m["sim_s_per_host_s"] = sumSim / (sumMs / 1e3)
}

// window runs passes until the deadline and at least through one cycle of
// the pool; a pass is never cut.
func (l *campaignLoad) window(ctx context.Context, d time.Duration) ([]passResult, *recorder, time.Duration, error) {
	start := time.Now()
	deadline := start.Add(d)
	rec := newRecorder()
	var passes []passResult
	for len(passes) < campaignPool || time.Now().Before(deadline) {
		r, err := campaignPass(ctx, l.o.seed, l.next, l.tr)
		l.next++
		if err != nil {
			return nil, nil, 0, err
		}
		passes = append(passes, r)
		rec.attempted++
		rec.ops = append(rec.ops, ms(r.wall))
		rec.simS += r.simS
	}
	return passes, rec, time.Since(start), nil
}

// traced measures an untraced half (pass time, tracing baseline), then a
// traced half whose campaign-call spans fold into the layer table.
func (l *campaignLoad) traced(ctx context.Context, out *outcome) error {
	l.tr = newTracer()
	half := l.o.window() / 2
	var base *recorder
	var baseElapsed time.Duration
	var werr error
	rss, err := sampleRSS(func() { _, base, baseElapsed, werr = l.window(ctx, half) })
	if err == nil {
		err = werr
	}
	if err != nil {
		return err
	}
	out.metrics["rss_p50_mb"] = quantile(rss, 0.5)
	base.classMetrics(out.metrics)
	out.metrics["campaign_pass_s"] = quantile(base.ops, 0.5) / 1e3
	l.tr.on.Store(true)
	passes, traced, tracedElapsed, err := l.window(ctx, half)
	l.tr.on.Store(false)
	if err != nil {
		return err
	}
	out.attempted = base.attempted + traced.attempted
	setPassMetrics(out.metrics, passes)
	out.table = fold(l.tr.copySpans())
	out.metrics["layers.unaccounted_ratio"] = out.table.unaccounted
	out.metrics["trace.overhead_ratio"] = overhead(base, baseElapsed, traced, tracedElapsed)
	return finishTrace(l.tr, out, l.o.spansOut)
}

// setPassMetrics sets the campaign's per-layer metrics as per-pass means.
func setPassMetrics(m map[string]float64, passes []passResult) {
	var eval, char, simS float64
	var cells, cached, hits, misses int64
	for _, p := range passes {
		eval += p.evaluate.Seconds()
		char += p.characterize.Seconds()
		simS += p.simS
		cells += p.cells
		cached += p.cached
		hits += p.hits
		misses += p.misses
	}
	n := float64(len(passes))
	m["campaign.evaluate_s"] = eval / n
	m["campaign.characterize_s"] = char / n
	m["campaign.cells"] = float64(cells) / n
	m["campaign.cells_cached"] = float64(cached) / n
	m["characterize.cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	// Wall nanoseconds of the Table III/IV replays per simulated tick.
	m["sim.ns_per_tick"] = ratio(eval*1e9, simS/sim.DefaultTick)
}
