package report

import (
	"os"
	"strings"
	"testing"
)

func TestGenerateQuickContainsEverySection(t *testing.T) {
	if testing.Short() {
		t.Skip("full report generation in -short mode")
	}
	var b strings.Builder
	opts := Quick()
	opts.EvalDuration = 420
	opts.AblationDuration = 420
	opts.Seeds = 2
	if err := Generate(&b, opts); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# AVFS reproduction report",
		"Table I — chip parameters",
		"Figure 3 — safe Vmin characterization",
		"Figure 4 — single-/two-core variation",
		"Figure 5 — pfail below safe Vmin",
		"Figure 6 — droop detections",
		"Table II — droop class vs Vmin",
		"Figure 7 — clustered vs spreaded energy",
		"Figure 8 — contention ratios",
		"Figure 9 — L3C access rates",
		"Figure 10 — Vmin factor magnitudes",
		"Figures 11/12 — energy and ED2P grids (X-Gene 2)",
		"Figures 11/12 — energy and ED2P grids (X-Gene 3)",
		"Table III — system evaluation (X-Gene 2)",
		"Table IV — system evaluation (X-Gene 3)",
		"Figure 14 — power timeline",
		"Figure 15 — load timeline",
		"Ablation — classification threshold",
		"Ablation — voltage guard",
		"Ablation — monitoring period",
		"Ablation — hysteresis",
		"Ablation — memory-PMD frequency",
		"Extension — relaxed performance constraints",
		"Ablation — fail-safe transition ordering",
		"Extension — aging drift vs voltage guard",
		"Ablation — migration cost",
		"Extension — chip-to-chip variation (fleet study)",
		"Comparison — power capping vs the efficiency daemon",
		"Energy breakdown by component (X-Gene 2)",
		"Robustness — savings across workload seeds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing section %q", want)
		}
	}
	// Key quantities must appear somewhere.
	for _, want := range []string{"830mV", "Energy Savings", "mean "} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing content %q", want)
		}
	}
}

func TestSkipSlow(t *testing.T) {
	if testing.Short() {
		t.Skip("report generation in -short mode")
	}
	var b strings.Builder
	opts := Quick()
	opts.EvalDuration = 300
	opts.SkipSlow = true
	if err := Generate(&b, opts); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "Ablation —") {
		t.Error("SkipSlow must drop the ablation sections")
	}
	if !strings.Contains(b.String(), "Table IV") {
		t.Error("SkipSlow must keep the core tables")
	}
}

func TestOptionPresets(t *testing.T) {
	d := Defaults()
	if d.Trials != 0 || d.EvalDuration != 3600 {
		t.Error("Defaults must be paper fidelity")
	}
	q := Quick()
	if q.Trials == 0 || q.EvalDuration >= d.EvalDuration {
		t.Error("Quick must reduce fidelity")
	}
}

// TestQuickMatchesCommittedReport: REPORT.md at the repository root is
// what `report -quick` prints today, apart from its "Generated" timestamp
// line. A change that moves a table or figure must commit the
// regenerated report (go run ./cmd/report -quick -o REPORT.md).
func TestQuickMatchesCommittedReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full report generation in -short mode")
	}
	want, err := os.ReadFile("../../REPORT.md")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := Generate(&b, Quick()); err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(b.String(), "\n")
	for i := 0; i < max(len(wantLines), len(gotLines)); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if strings.HasPrefix(w, "Generated ") && strings.HasPrefix(g, "Generated ") {
			continue
		}
		if w != g {
			t.Fatalf("REPORT.md is stale from line %d (regenerate with go run ./cmd/report -quick -o REPORT.md):\ncommitted: %q\nreport -quick: %q", i+1, w, g)
		}
	}
}
