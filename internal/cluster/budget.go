package cluster

import "math"

// PartitionBudget splits a total watt budget across consumers
// proportionally to their demand. It is the single partition rule used
// at both levels of the cluster power hierarchy: the router splits the
// global budget across nodes by node demand, and each node agent
// splits its share across sessions by session demand — the same
// proportional-share arithmetic the paper's cluster-level governor
// applies, two levels deep.
//
// names and demands are parallel; the returned map carries one share
// per name. Rules:
//   - total <= 0 or no consumers → empty map (no budget to enforce).
//   - all demands <= 0 (nothing has drawn power yet) → equal split, so
//     fresh sessions still get a cap instead of an unbounded window.
//   - otherwise shares are total * demand_i / sum(demands), with
//     zero-demand consumers getting a zero share — they'll pick up a
//     real share on the next repartition once they draw power. A zero
//     share is delivered as a tiny positive cap by the applier, never
//     as "no cap".
//   - when the sum or a product total*demand_i overflows, every demand
//     is first divided by the largest one, so shares stay finite for
//     every finite input.
func PartitionBudget(total float64, names []string, demands []float64) map[string]float64 {
	if total <= 0 || len(names) == 0 || len(names) != len(demands) {
		return map[string]float64{}
	}
	var sum, peak float64
	for _, d := range demands {
		if d > 0 {
			sum += d
			peak = math.Max(peak, d)
		}
	}
	scale := 1.0
	if math.IsInf(sum, 0) || math.IsInf(total*peak, 0) {
		scale, sum = peak, 0
		for _, d := range demands {
			if d > 0 {
				sum += d / scale
			}
		}
	}
	out := make(map[string]float64, len(names))
	if sum <= 0 {
		share := total / float64(len(names))
		for _, n := range names {
			out[n] = share
		}
		return out
	}
	for i, n := range names {
		d := demands[i]
		if d < 0 {
			d = 0
		}
		out[n] = total * (d / scale) / sum
	}
	return out
}
