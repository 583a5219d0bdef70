// Package benchkit is the one estimator behind the repository's A/B
// timing gates: a baseline and a variant measured in interleaved pairs,
// reported as the median per-pair ratio with its quartiles.
//
// Pairing cancels the drift a shared host adds to both sides of one pair
// (frequency steps, a noisy neighbour, a growing heap); alternating which
// side runs first cancels the order effect; and the median ignores the
// pairs a scheduling hiccup hit on one side only. A single comparison, a
// best-of-N or per-side minima do none of these.
package benchkit

import (
	"runtime"
	"sort"
)

// Env records where a comparison ran.
type Env struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// Comparison is the result of Pairs: the sides' median costs and the
// median and quartiles of the per-pair variant/baseline ratios.
type Comparison struct {
	Env
	BaseMedian, VariantMedian float64
	Ratio, RatioP25, RatioP75 float64
}

// Overhead is the variant's median extra cost as a fraction of the
// baseline's, with its quartiles.
func (c Comparison) Overhead() (median, p25, p75 float64) {
	return c.Ratio - 1, c.RatioP25 - 1, c.RatioP75 - 1
}

// Pairs measures n interleaved pairs. base and variant each run one
// sample and return its cost (any unit, the same for both); even pairs
// run the baseline first, odd pairs the variant.
func Pairs(n int, base, variant func() float64) Comparison {
	bs, vs, rs := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			bs[i] = base()
			vs[i] = variant()
		} else {
			vs[i] = variant()
			bs[i] = base()
		}
		rs[i] = vs[i] / bs[i]
	}
	return Comparison{
		Env:           Env{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()},
		BaseMedian:    Quantile(bs, 0.5),
		VariantMedian: Quantile(vs, 0.5),
		Ratio:         Quantile(rs, 0.5),
		RatioP25:      Quantile(rs, 0.25),
		RatioP75:      Quantile(rs, 0.75),
	}
}

// Quantile is the linearly interpolated q-quantile of xs, 0 for no
// samples. It sorts xs in place.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	// The conversions keep both products from fusing with the add or
	// subtract that follows on architectures with fused multiply-add.
	pos := float64(q * float64(len(xs)-1))
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + float64((pos-float64(i))*(xs[i+1]-xs[i]))
}
