package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// heldOutSeed was never used while the benchmark was tuned.
const heldOutSeed = "977"

// benchSpec is the part of BENCHMARK.json the tests check.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

// TestCatalogMatchesBenchmarkJSON keeps the metrics the benchmark prints
// in step with the ones BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	for _, c := range []struct {
		kind string
		want []specMetric
		got  []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.want) != len(c.got) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", c.kind, len(c.want), len(c.got))
			continue
		}
		for i, m := range c.want {
			if m.Name != c.got[i].name || m.Unit != c.got[i].unit {
				t.Errorf("%s[%d]: declared %s (%s), printed %s (%s)", c.kind, i, m.Name, m.Unit, c.got[i].name, c.got[i].unit)
			}
		}
	}
	if len(spec.Workloads) != len(runners) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(runners))
	}
	for _, w := range spec.Workloads {
		if runners[w.Name] == nil {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
}

// TestWorkloadsShort runs every workload briefly on a held-out seed,
// untraced and traced: every named metric must be emitted with its unit,
// the correctness check must pass and no operation may fail.
func TestWorkloadsShort(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	for _, wl := range []string{"interactive", "routed", "advance", "campaign"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", wl, "--seed", heldOutSeed, "--seconds", "1", "--trace", trace,
					"--spans-out", filepath.Join(t.TempDir(), "spans.jsonl")}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d:\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, stderr.String())
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.name)
					case m.Unit != d.unit:
						t.Errorf("metric %s in %q, want %q", d.name, m.Unit, d.unit)
					case trace == "0" && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
				if v := res.Metrics["failed_ratio"].Value; trace == "1" && v != 0 {
					t.Errorf("failed_ratio %v, want 0", v)
				}
			})
		}
	}
}

// TestFoldAccountsForClientTime checks the layer fold on a hand-built
// request: the self times of a fully traced run sum to its client time,
// and a run whose server spans were lost leaves its node time unaccounted.
func TestFoldAccountsForClientTime(t *testing.T) {
	spans := []span{
		{Op: "b-0-1", Layer: "client", Class: classRun, Dur: 1000},
		{Op: "b-0-1", Layer: "node", Class: classRun, Dur: 800},
		{Op: "b-0-1", Layer: "http.request", Dur: 790},
		{Op: "b-0-1", Layer: "actor.queue", Dur: 10},
		{Op: "b-0-1", Layer: "runner.cell", Dur: 700},
		{Op: "b-0-1", Layer: "sim.advance", Dur: 600, Ticks: 100},
	}
	tab := fold(spans)
	if tab.unaccounted != 0 || tab.ops != 1 || tab.ticks != 100 {
		t.Errorf("unaccounted %v, ops %d, ticks %d; want 0, 1, 100", tab.unaccounted, tab.ops, tab.ticks)
	}
	want := map[string]int64{
		"wire": 200, "service.edge": 10, "service.http": 80,
		"actor.queue": 10, "runner.cell": 100, "sim.advance": 600,
	}
	for layer, ns := range want {
		if row := tab.rows[layer]; row == nil || row.selfNs != ns {
			t.Errorf("%s self time %+v, want %d ns", layer, row, ns)
		}
	}
	if got := fold(spans[:2]).unaccounted; got != 0.8 {
		t.Errorf("lost server spans: unaccounted %v, want 0.8", got)
	}
}

func TestQuantile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{4, 1, 3, 2, 5}, 0.5, 3},
		{[]float64{1, 2}, 0.5, 1.5},
		{[]float64{1, 2, 3}, 1, 3},
		{nil, 0.99, 0},
	} {
		if got := quantile(c.xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
}

// TestAtReference checks that a time and a rate measured on one host are
// quoted inversely, and a size as measured.
func TestAtReference(t *testing.T) {
	fast := 2 * refStepsPerS
	if got := atReference(3, scaleTime, fast); got != 6 {
		t.Errorf("3 s at twice the reference speed quoted as %v s, want 6", got)
	}
	if got := atReference(10, scaleRate, fast); got != 5 {
		t.Errorf("10/s at twice the reference speed quoted as %v/s, want 5", got)
	}
	if got := atReference(40, scaleNone, fast); got != 40 {
		t.Errorf("40 MB quoted as %v, want 40", got)
	}
	for _, d := range endToEnd {
		if _, ok := speedScaled[d.name]; !ok && d.unit != "MB" {
			t.Errorf("end-to-end %s (%s) has no reference-speed scaling", d.name, d.unit)
		}
	}
}

// TestProbeSamples checks that the probe reports a positive speed after a
// few of its periods.
func TestProbeSamples(t *testing.T) {
	p := startProbe()
	time.Sleep(5 * probeEvery)
	if speed := p.stop(); speed <= 0 {
		t.Errorf("probe speed %v, want > 0", speed)
	}
}
