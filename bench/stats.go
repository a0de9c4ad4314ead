package bench

import (
	"math"
	"slices"
)

// Median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no values.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first quartile, median and third quartile of
// xs by the same rule as Python's statistics.quantiles(xs, n=4) (its
// default "exclusive" method), so spreads printed here match the ones
// a Python harness computes from the same values. A single value is
// its own quartiles.
func Quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// RelIQR is the distance between the quartiles of xs as a share of
// their median.
func RelIQR(xs []float64) float64 {
	q1, med, q3 := Quartiles(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// tailPercentiles are the candidates TailPercentile picks from.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// TailPercentile returns the highest of p99.9, p99, p90 and p50 that
// leaves at least ten of n samples beyond it, or 0 when even the
// median does not.
func TailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n-rank(p, n) >= 10 {
			return p
		}
	}
	return 0
}

// rank is the 1-based nearest rank of the p-th percentile of n
// samples. The tolerance keeps p*n/100 from rounding up past an exact
// integer, as 99.9*10000/100 would.
func rank(p float64, n int) int {
	return min(max(int(math.Ceil(p*float64(n)/100-1e-9)), 1), n)
}

// Percentile returns the nearest-rank p-th percentile of xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank(p, len(s))-1]
}
