package export

import (
	"context"
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"avfs/internal/chip"
	"avfs/internal/experiments"
	"avfs/internal/sim"
	"avfs/internal/trace"
	"avfs/internal/wlgen"
)

func TestSeriesCSV(t *testing.T) {
	s := trace.NewSeries("power (W)")
	s.Add(0, 10.5)
	s.Add(1, 12)
	var b strings.Builder
	if err := Series(&b, s); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("%d records", len(recs))
	}
	if recs[0][1] != "power (W)" {
		t.Errorf("header %v", recs[0])
	}
	if recs[1][1] != "10.5" || recs[2][0] != "1.000" {
		t.Errorf("rows %v", recs[1:])
	}
}

func TestEvalSetCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluation in -short mode")
	}
	spec := chip.XGene2Spec()
	wl := wlgen.Generate(spec, wlgen.Config{Duration: 240}, 4)
	set, err := experiments.EvaluateAllContext(context.Background(), experiments.Campaign{}, spec, wl)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := EvalSet(dir, set); err != nil {
		t.Fatal(err)
	}
	// Summary: header + 4 configs.
	f, err := os.Open(filepath.Join(dir, "summary.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("summary has %d rows", len(recs))
	}
	if recs[1][0] != "Baseline" || recs[4][0] != "Optimal" {
		t.Errorf("config order: %v / %v", recs[1][0], recs[4][0])
	}
	// Timelines exist for every config and suffix.
	for _, name := range []string{"baseline", "safe_vmin", "placement", "optimal"} {
		for _, suffix := range []string{"power", "load", "cpu", "mem"} {
			p := filepath.Join(dir, name+"_"+suffix+".csv")
			if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
				t.Errorf("timeline %s missing or empty", p)
			}
		}
	}
}

func TestGridCSV(t *testing.T) {
	grid, err := experiments.EnergyGridContext(context.Background(), experiments.Campaign{}, chip.XGene2Spec(), sim.Clustered)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := Grid(&b, grid); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1+len(grid.Cells) {
		t.Fatalf("%d rows for %d cells", len(recs), len(grid.Cells))
	}
}

func TestFig7CSV(t *testing.T) {
	r, err := experiments.Figure7Context(context.Background(), experiments.Campaign{}, chip.XGene2Spec())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := Fig7(&b, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "CG") || !strings.Contains(b.String(), "memory_intensive") {
		t.Error("Fig7 CSV incomplete")
	}
}

func TestSanitize(t *testing.T) {
	cases := map[string]string{
		"Safe Vmin": "safe_vmin",
		"Baseline":  "baseline",
		"a-B c1!":   "a_b_c1",
	}
	for in, want := range cases {
		if got := sanitize(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}
