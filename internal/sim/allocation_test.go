package sim

import (
	"errors"
	"testing"
	"testing/quick"

	"avfs/internal/chip"
)

// TestParsePlacement pins every wire alias of the two placements, the
// default and the round trip through String.
func TestParsePlacement(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Placement
		ok   bool
	}{
		{"", Clustered, true},
		{"clustered", Clustered, true},
		{" Cluster ", Clustered, true},
		{"spreaded", Spreaded, true},
		{"SPREAD", Spreaded, true},
		{"spreads", 0, false},
		{"bogus", 0, false},
	} {
		got, err := ParsePlacement(tc.in)
		if !tc.ok {
			if !errors.Is(err, ErrInvalidPlacement) {
				t.Errorf("ParsePlacement(%q) = %v, %v; want ErrInvalidPlacement", tc.in, got, err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ParsePlacement(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, p := range []Placement{Clustered, Spreaded} {
		if got, err := ParsePlacement(p.String()); err != nil || got != p {
			t.Errorf("ParsePlacement(%q) = %v, %v", p.String(), got, err)
		}
	}
}

func TestClusteredCoresPattern(t *testing.T) {
	s := chip.XGene3Spec()
	got, err := ClusteredCores(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []chip.CoreID{0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("clustered(4) = %v, want %v", got, want)
		}
	}
	if n := len(UtilizedPMDs(s, got)); n != 2 {
		t.Errorf("clustered 4T utilizes %d PMDs, want 2", n)
	}
}

func TestSpreadedCoresPattern(t *testing.T) {
	s := chip.XGene3Spec()
	got, err := SpreadedCores(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []chip.CoreID{0, 2, 4, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("spreaded(4) = %v, want %v", got, want)
		}
	}
	if n := len(UtilizedPMDs(s, got)); n != 4 {
		t.Errorf("spreaded 4T utilizes %d PMDs, want 4", n)
	}
}

func TestSpreadedOverflowFillsSiblings(t *testing.T) {
	s := chip.XGene2Spec() // 4 PMDs
	got, err := SpreadedCores(s, 6)
	if err != nil {
		t.Fatal(err)
	}
	// 4 even cores, then odd cores of PMD0, PMD1.
	want := []chip.CoreID{0, 2, 4, 6, 1, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("spreaded(6) = %v, want %v", got, want)
		}
	}
}

func TestAllocationBounds(t *testing.T) {
	s := chip.XGene2Spec()
	if _, err := ClusteredCores(s, 0); err == nil {
		t.Error("0 threads must error")
	}
	if _, err := SpreadedCores(s, 9); err == nil {
		t.Error("more threads than cores must error")
	}
	if cs, err := CoresFor(s, Spreaded, 8); err != nil || len(cs) != 8 {
		t.Errorf("full-chip allocation failed: %v %v", cs, err)
	}
}

// TestPaperPMDCounts checks the Table II mapping of thread scaling to
// utilized PMDs on X-Gene 3.
func TestPaperPMDCounts(t *testing.T) {
	s := chip.XGene3Spec()
	cases := []struct {
		n     int
		place Placement
		pmds  int
	}{
		{32, Clustered, 16},
		{16, Spreaded, 16},
		{16, Clustered, 8},
		{8, Spreaded, 8},
		{8, Clustered, 4},
		{4, Clustered, 2},
		{4, Spreaded, 4},
		{2, Clustered, 1},
		{1, Clustered, 1},
	}
	for _, tc := range cases {
		cs, err := CoresFor(s, tc.place, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(UtilizedPMDs(s, cs)); got != tc.pmds {
			t.Errorf("%dT %v: %d PMDs, want %d", tc.n, tc.place, got, tc.pmds)
		}
	}
}

func TestAllocationProperties(t *testing.T) {
	s := chip.XGene3Spec()
	f := func(nRaw uint8, clustered bool) bool {
		n := 1 + int(nRaw)%s.Cores
		place := Spreaded
		if clustered {
			place = Clustered
		}
		cs, err := CoresFor(s, place, n)
		if err != nil || len(cs) != n {
			return false
		}
		// Distinct and in range.
		seen := map[chip.CoreID]bool{}
		for _, c := range cs {
			if !s.ValidCore(c) || seen[c] {
				return false
			}
			seen[c] = true
		}
		// Clustered minimizes PMDs; spreaded maximizes.
		pmds := len(UtilizedPMDs(s, cs))
		if clustered {
			return pmds == (n+1)/2
		}
		wantPMDs := n
		if wantPMDs > s.PMDs() {
			wantPMDs = s.PMDs()
		}
		return pmds == wantPMDs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPlacementString(t *testing.T) {
	if Clustered.String() != "clustered" || Spreaded.String() != "spreaded" {
		t.Error("placement names")
	}
}
