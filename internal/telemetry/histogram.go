package telemetry

import "math/bits"

// histBuckets is one bucket per possible bit length of a uint64 value:
// bucket 0 holds the value 0, bucket i>0 holds values in
// [2^(i-1), 2^i - 1]. Power-of-two buckets keep Observe to a handful of
// instructions while preserving the order of magnitude, which is all
// the query-depth and rescue-distance distributions need.
const histBuckets = 65

// Histogram is a fixed-cost exponential-bucket histogram for
// non-negative integer observations. The zero value is ready to use; it
// is not goroutine-safe (recorders run on the single simulation
// goroutine).
type Histogram struct {
	count, sum uint64
	min, max   uint64
	buckets    [histBuckets]uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bits.Len64(v)]++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// HistogramBucket is one non-empty bucket of a summary: Count values
// were observed in [Lo, Hi].
type HistogramBucket struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

// HistogramSummary is the JSON-ready digest of a histogram.
type HistogramSummary struct {
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   uint64  `json:"min"`
	Max   uint64  `json:"max"`
	// P50/P90/P99 are quantile estimates interpolated within the
	// exponential buckets (exact when a bucket spans a single value).
	P50     float64           `json:"p50"`
	P90     float64           `json:"p90"`
	P99     float64           `json:"p99"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// bucketBounds returns the value range bucket i covers.
func bucketBounds(i int) (lo, hi uint64) {
	if i == 0 {
		return 0, 0
	}
	return uint64(1) << (i - 1), uint64(1)<<i - 1
}

// Quantile estimates the q-quantile (0..1) of the observed values by
// linear interpolation within the containing bucket. It returns 0 when
// the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return float64(h.min)
	}
	if q >= 1 {
		return float64(h.max)
	}
	rank := q * float64(h.count)
	cum := 0.0
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := bucketBounds(i)
			if lo < h.min {
				lo = h.min
			}
			if hi > h.max {
				hi = h.max
			}
			frac := (rank - cum) / float64(c)
			return float64(lo) + frac*float64(hi-lo)
		}
		cum += float64(c)
	}
	return float64(h.max)
}

// Summary digests the histogram. Only non-empty buckets are emitted.
func (h *Histogram) Summary() HistogramSummary {
	s := HistogramSummary{
		Count: h.count,
		Sum:   h.sum,
		Min:   h.min,
		Max:   h.max,
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
	if h.count > 0 {
		s.Mean = float64(h.sum) / float64(h.count)
	}
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		lo, hi := bucketBounds(i)
		s.Buckets = append(s.Buckets, HistogramBucket{Lo: lo, Hi: hi, Count: c})
	}
	return s
}
