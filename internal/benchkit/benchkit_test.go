package benchkit

import (
	"reflect"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.125, 1.5}} {
		if got := Quantile(xs, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile(nil) = %v, want 0", got)
	}
}

// TestPairsAlternatesAndPairs: the sides swap order every pair, and the
// ratio quartiles come from per-pair ratios, not from the sides' own
// medians.
func TestPairsAlternatesAndPairs(t *testing.T) {
	var order []string
	costs := []float64{10, 20, 40, 80}
	i, j := 0, 0
	c := Pairs(4,
		func() float64 { order = append(order, "b"); i++; return costs[i-1] },
		func() float64 { order = append(order, "v"); j++; return 1.1 * costs[j-1] })
	if want := []string{"b", "v", "v", "b", "b", "v", "v", "b"}; !reflect.DeepEqual(order, want) {
		t.Errorf("run order %v, want %v", order, want)
	}
	if c.BaseMedian != 30 {
		t.Errorf("base median %v, want 30", c.BaseMedian)
	}
	med, p25, p75 := c.Overhead()
	for _, x := range []float64{med, p25, p75} {
		if x < 0.0999 || x > 0.1001 {
			t.Errorf("overhead quartiles %v %v %v, want 0.1 each", med, p25, p75)
		}
	}
}
