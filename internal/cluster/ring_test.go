package cluster

import (
	"fmt"
	"math"
	"testing"
	"time"

	"avfs/api"
)

// TestRingMinimalDisruption pins the property migration cost depends
// on: when a node joins, the only keys that move are the ones the new
// node wins, and their count is close to the expected K/n share.
func TestRingMinimalDisruption(t *testing.T) {
	nodes := []string{"n1", "n2", "n3", "n4"}
	const K = 4000
	before := NewRing(nodes)
	after := NewRing(append(append([]string(nil), nodes...), "n5"))

	moved := 0
	for i := 0; i < K; i++ {
		key := fmt.Sprintf("s-c%06d", i)
		a, b := before.Owner(key), after.Owner(key)
		if a == b {
			continue
		}
		moved++
		if b != "n5" {
			t.Fatalf("key %s moved %s -> %s, not to the joining node", key, a, b)
		}
	}
	expect := K / 5
	if moved < expect/2 || moved > expect*2 {
		t.Fatalf("moved %d keys on join, want around K/n = %d", moved, expect)
	}
}

// TestRingLeaveOnlyMovesOrphans: removing a node relocates exactly the
// keys it owned.
func TestRingLeaveOnlyMovesOrphans(t *testing.T) {
	before := NewRing([]string{"n1", "n2", "n3"})
	after := NewRing([]string{"n1", "n2"})
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("k%d", i)
		a, b := before.Owner(key), after.Owner(key)
		if a != "n3" && a != b {
			t.Fatalf("key %s moved %s -> %s though its owner stayed", key, a, b)
		}
	}
}

// TestRingDeterminism: owner is a pure function of (members, key),
// independent of member order and ring instance.
func TestRingDeterminism(t *testing.T) {
	r1 := NewRing([]string{"a", "b", "c"})
	r2 := NewRing([]string{"c", "a", "b", "a"})
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("s%d", i)
		if r1.Owner(key) != r2.Owner(key) {
			t.Fatalf("owner of %s differs across equivalent rings", key)
		}
	}
}

// TestRingRanked: index 0 is the owner, all members appear exactly once.
func TestRingRanked(t *testing.T) {
	r := NewRing([]string{"a", "b", "c", "d"})
	ranked := r.Ranked("some-session")
	if len(ranked) != 4 {
		t.Fatalf("ranked returned %d nodes, want 4", len(ranked))
	}
	if ranked[0] != r.Owner("some-session") {
		t.Fatalf("ranked[0] = %s, owner = %s", ranked[0], r.Owner("some-session"))
	}
	seen := map[string]bool{}
	for _, n := range ranked {
		if seen[n] {
			t.Fatalf("node %s ranked twice", n)
		}
		seen[n] = true
	}
}

// TestRingBoundedLoad: a node at capacity is skipped in favor of the
// next preference, and placement falls back to the plain owner when
// everyone is full.
func TestRingBoundedLoad(t *testing.T) {
	r := NewRing([]string{"a", "b", "c"})
	key := "session-x"
	owner := r.Owner(key)
	ranked := r.Ranked(key)

	load := func(n string) int {
		if n == owner {
			return 10 // at capacity
		}
		return 0
	}
	got := r.OwnerBounded(key, load, 10)
	if got != ranked[1] {
		t.Fatalf("bounded owner = %s, want second preference %s", got, ranked[1])
	}

	full := func(string) int { return 10 }
	if got := r.OwnerBounded(key, full, 10); got != owner {
		t.Fatalf("all-full fallback = %s, want plain owner %s", got, owner)
	}
	if got := r.OwnerBounded(key, load, 0); got != owner {
		t.Fatalf("capacity 0 (bound off) = %s, want plain owner %s", got, owner)
	}
}

// TestRingEmpty: empty ring answers empty, not panics.
func TestRingEmpty(t *testing.T) {
	r := NewRing(nil)
	if r.Owner("x") != "" {
		t.Fatalf("empty ring owner = %q, want empty", r.Owner("x"))
	}
	if len(r.Ranked("x")) != 0 {
		t.Fatalf("empty ring ranked non-empty")
	}
}

// TestRegistryLifecycle: epoch bumps on join/drain-flip/expiry/remove,
// not on plain refresh; TTL expiry drops silent nodes.
func TestRegistryLifecycle(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	r := NewRegistry(5*time.Second, clock)

	e1, err := r.Heartbeat(api.NodeHeartbeat{Name: "n1", URL: "http://a", Sessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	e2, _ := r.Heartbeat(api.NodeHeartbeat{Name: "n1", URL: "http://a", Sessions: 3})
	if e2 != e1 {
		t.Fatalf("plain refresh bumped epoch %d -> %d", e1, e2)
	}
	e3, _ := r.Heartbeat(api.NodeHeartbeat{Name: "n1", URL: "http://a", Draining: true})
	if e3 == e2 {
		t.Fatalf("drain flip did not bump epoch")
	}
	if ready := r.Ready(); len(ready) != 0 {
		t.Fatalf("draining node still listed ready: %+v", ready)
	}

	_, _ = r.Heartbeat(api.NodeHeartbeat{Name: "n2", URL: "http://b"})
	now = now.Add(6 * time.Second) // both stale
	if snap := r.Snapshot(); len(snap) != 0 {
		t.Fatalf("stale nodes survived TTL: %+v", snap)
	}

	if _, err := r.Heartbeat(api.NodeHeartbeat{Name: "", URL: "http://x"}); err == nil {
		t.Fatalf("nameless heartbeat accepted")
	}

	_, _ = r.Heartbeat(api.NodeHeartbeat{Name: "n3", URL: "http://c"})
	before := r.Epoch()
	r.Remove("n3")
	if r.Epoch() == before {
		t.Fatalf("remove did not bump epoch")
	}
	r.Remove("n3") // idempotent
}

// TestPartitionBudget pins the proportional-share rule at both levels
// of the power hierarchy.
func TestPartitionBudget(t *testing.T) {
	shares := PartitionBudget(100, []string{"a", "b"}, []float64{30, 10})
	if got := shares["a"]; got < 74.9 || got > 75.1 {
		t.Fatalf("a share = %v, want 75", got)
	}
	if got := shares["b"]; got < 24.9 || got > 25.1 {
		t.Fatalf("b share = %v, want 25", got)
	}

	eq := PartitionBudget(90, []string{"a", "b", "c"}, []float64{0, 0, 0})
	for n, w := range eq {
		if w < 29.9 || w > 30.1 {
			t.Fatalf("equal split gave %s %v, want 30", n, w)
		}
	}

	if len(PartitionBudget(0, []string{"a"}, []float64{1})) != 0 {
		t.Fatalf("zero budget produced shares")
	}
	if len(PartitionBudget(10, nil, nil)) != 0 {
		t.Fatalf("no consumers produced shares")
	}

	mixed := PartitionBudget(100, []string{"hot", "cold"}, []float64{50, 0})
	if mixed["hot"] < 99.9 || mixed["cold"] != 0 {
		t.Fatalf("mixed demand shares wrong: %+v", mixed)
	}
}

// TestPartitionBudgetFinite checks that every finite non-negative input
// partitions into finite shares summing to the budget, and that inputs
// whose arithmetic does not overflow keep the plain total*d/sum bits.
func TestPartitionBudgetFinite(t *testing.T) {
	for _, tc := range []struct {
		total   float64
		demands []float64
	}{
		{300, []float64{1e308}},
		{300, []float64{1e308, 1e308}},
		{300, []float64{math.MaxFloat64, math.MaxFloat64, 1}},
		{300, []float64{100, 1e308}},
		{1e308, []float64{1e308, 5}},
		{math.MaxFloat64, []float64{3, 7}},
		{300, []float64{5e-324, 5e-324}},
		{100, []float64{30, 10}},
		{100, []float64{50, 0, -3}},
	} {
		names := make([]string, len(tc.demands))
		for i := range names {
			names[i] = fmt.Sprint("n", i)
		}
		shares := PartitionBudget(tc.total, names, tc.demands)
		var sum, plain float64
		for _, d := range tc.demands {
			plain += math.Max(d, 0)
		}
		overflow := math.IsInf(plain, 0)
		for i, n := range names {
			s := shares[n]
			if math.IsInf(s, 0) || math.IsNaN(s) || s < 0 || s > tc.total {
				t.Fatalf("PartitionBudget(%v, %v): share %s = %v", tc.total, tc.demands, n, s)
			}
			d := math.Max(tc.demands[i], 0)
			if want := tc.total * d / plain; !overflow && !math.IsInf(tc.total*d, 0) && s != want {
				t.Errorf("PartitionBudget(%v, %v): share %s = %v, want the plain %v", tc.total, tc.demands, n, s, want)
			}
			sum += s
		}
		if math.Abs(sum-tc.total) > 1e-9*tc.total {
			t.Errorf("PartitionBudget(%v, %v): shares sum to %v", tc.total, tc.demands, sum)
		}
	}
}
