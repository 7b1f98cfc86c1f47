package trace

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
)

// NumHistBuckets is the fixed bucket count of Hist: bucket 0 holds
// non-positive samples, bucket i (i >= 1) holds samples in [2^(i-1), 2^i).
const NumHistBuckets = 64

// Hist is a fixed-footprint power-of-two histogram. The zero value is
// ready to use, so it embeds directly in stats structs with no
// constructor, and Observe costs a handful of integer ops — cheap enough
// to leave always-on in the simulated hot path.
type Hist struct {
	Count   int64
	Sum     int64
	MinV    int64
	MaxV    int64
	Buckets [NumHistBuckets]int64
}

// bucketOf maps a sample to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v)) // v in [2^(b-1), 2^b) -> Len64 = b
}

// BucketBounds returns bucket i's half-open range [lo, hi).
func BucketBounds(i int) (lo, hi int64) {
	if i <= 0 {
		return math.MinInt64, 1
	}
	lo = int64(1) << (i - 1)
	if i >= 63 {
		return lo, math.MaxInt64
	}
	return lo, int64(1) << i
}

// Observe records one sample.
func (h *Hist) Observe(v int64) {
	if h.Count == 0 || v < h.MinV {
		h.MinV = v
	}
	if h.Count == 0 || v > h.MaxV {
		h.MaxV = v
	}
	h.Count++
	h.Sum += v
	h.Buckets[bucketOf(v)]++
}

// ObserveN records n samples of value v, the same histogram as n calls to
// Observe(v); n <= 0 records nothing.
func (h *Hist) ObserveN(v, n int64) {
	if n <= 0 {
		return
	}
	if h.Count == 0 || v < h.MinV {
		h.MinV = v
	}
	if h.Count == 0 || v > h.MaxV {
		h.MaxV = v
	}
	h.Count += n
	h.Sum += v * n
	h.Buckets[bucketOf(v)] += n
}

// Mean returns the exact sample mean (0 when empty).
func (h *Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns an upper bound on the q-quantile: the exclusive upper
// edge of the bucket containing it, clamped to the observed max. q is
// clamped to [0, 1]; an empty histogram returns 0.
func (h *Hist) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, n := range h.Buckets {
		cum += n
		if cum >= rank {
			_, hi := BucketBounds(i)
			if hi > h.MaxV {
				return h.MaxV
			}
			return hi
		}
	}
	return h.MaxV
}

// histBucketJSON is one non-empty bucket in the wire format.
type histBucketJSON struct {
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
	N  int64 `json:"n"`
}

// histJSON is the wire format of Hist: summary statistics plus only the
// non-empty buckets, so sparse histograms stay small on disk.
type histJSON struct {
	Count   int64            `json:"count"`
	Sum     int64            `json:"sum"`
	Min     int64            `json:"min"`
	Max     int64            `json:"max"`
	Mean    float64          `json:"mean"`
	P50     int64            `json:"p50"`
	P99     int64            `json:"p99"`
	Buckets []histBucketJSON `json:"buckets,omitempty"`
}

// MarshalJSON emits the compact wire format.
func (h *Hist) MarshalJSON() ([]byte, error) {
	out := histJSON{
		Count: h.Count, Sum: h.Sum, Min: h.MinV, Max: h.MaxV,
		Mean: h.Mean(), P50: h.Quantile(0.5), P99: h.Quantile(0.99),
	}
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		lo, hi := BucketBounds(i)
		if lo < h.MinV && h.MinV < hi {
			// Tighten lo to the minimum sample (bucket 0 spans all
			// non-positive values), but never out of the bucket: a
			// decoded histogram whose min contradicts its buckets must
			// still re-encode to the same buckets.
			lo = h.MinV
		}
		out.Buckets = append(out.Buckets, histBucketJSON{Lo: lo, Hi: hi, N: n})
	}
	return json.Marshal(out)
}

// UnmarshalJSON restores a histogram from the wire format (summary fields
// plus buckets; lo edges are re-quantized to power-of-two buckets).
func (h *Hist) UnmarshalJSON(data []byte) error {
	var in histJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	*h = Hist{Count: in.Count, Sum: in.Sum, MinV: in.Min, MaxV: in.Max}
	for _, b := range in.Buckets {
		i := bucketOf(b.Lo)
		if i >= NumHistBuckets {
			return fmt.Errorf("trace: histogram bucket lo %d out of range", b.Lo)
		}
		h.Buckets[i] += b.N
	}
	return nil
}
