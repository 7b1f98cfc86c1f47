package trace

import (
	"encoding/json"
	"math"
	"testing"
)

func TestHistBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{math.MinInt64, 0}, {-1, 0}, {0, 0},
		{1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11},
		{math.MaxInt64, 63},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
		lo, hi := BucketBounds(c.bucket)
		if c.v < lo || c.v >= hi {
			// Bucket 63's hi is clamped to MaxInt64, which the max sample
			// equals rather than undershoots.
			if !(c.bucket == 63 && c.v == math.MaxInt64) {
				t.Errorf("value %d outside its bucket %d bounds [%d, %d)", c.v, c.bucket, lo, hi)
			}
		}
	}
	// Bounds tile the positive axis with no gaps.
	for i := 1; i < 63; i++ {
		_, hi := BucketBounds(i)
		lo, _ := BucketBounds(i + 1)
		if hi != lo {
			t.Errorf("bucket %d hi %d != bucket %d lo %d", i, hi, i+1, lo)
		}
	}
}

func TestHistEmpty(t *testing.T) {
	var h Hist
	if h.Count != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Errorf("empty hist not neutral: %+v mean=%v p50=%v", h, h.Mean(), h.Quantile(0.5))
	}
	b, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	var back Hist
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Errorf("empty hist round-trip mismatch: %+v", back)
	}
}

func TestHistOneSample(t *testing.T) {
	var h Hist
	h.Observe(42)
	if h.Count != 1 || h.Sum != 42 || h.MinV != 42 || h.MaxV != 42 {
		t.Fatalf("one-sample summary wrong: %+v", h)
	}
	if h.Mean() != 42 {
		t.Errorf("mean = %v, want 42", h.Mean())
	}
	// 42 lives in [32, 64); the quantile upper bound is clamped to max.
	if q := h.Quantile(0.5); q != 42 {
		t.Errorf("p50 = %d, want 42 (clamped to max)", q)
	}
	if h.Buckets[6] != 1 {
		t.Errorf("sample not in bucket 6: %v", h.Buckets)
	}
}

func TestHistObserveAndQuantile(t *testing.T) {
	var h Hist
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count != 1000 || h.Sum != 500500 {
		t.Fatalf("summary wrong: count=%d sum=%d", h.Count, h.Sum)
	}
	// p50 of 1..1000 is 500, whose bucket is [512, 1024) upper-bounded at
	// 512; the estimate must bracket the true value within one bucket.
	if q := h.Quantile(0.5); q < 500 || q > 1024 {
		t.Errorf("p50 = %d, want within (500, 1024]", q)
	}
	if q := h.Quantile(1); q != 1000 {
		t.Errorf("p100 = %d, want 1000 (observed max)", q)
	}
	if q := h.Quantile(0); q < 1 || q > 2 {
		t.Errorf("p0 = %d, want first bucket bound", q)
	}
}

func TestHistJSONRoundTrip(t *testing.T) {
	var h Hist
	for _, v := range []int64{0, 1, 1, 5, 300, 70000, -3} {
		h.Observe(v)
	}
	b, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	var back Hist
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, h)
	}
}

// TestHistObserveN: ObserveN(v, n) marshals to the same bytes as n calls
// to Observe(v), into an empty histogram and into one already holding
// samples on both sides of v, for zero, negative and bucket-edge values;
// n <= 0 leaves the histogram as it was.
func TestHistObserveN(t *testing.T) {
	marshal := func(h *Hist) string {
		t.Helper()
		b, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	seeded := func(prefill bool) Hist {
		var h Hist
		if prefill {
			for _, v := range []int64{-5, 3, 200} {
				h.Observe(v)
			}
		}
		return h
	}
	for _, prefill := range []bool{false, true} {
		for _, v := range []int64{0, -1, -7, 1, 2, 3, 4, 63, 64, 1023, 1024, 1 << 40} {
			for _, n := range []int64{-3, 0, 1, 2, 5, 64} {
				got, want := seeded(prefill), seeded(prefill)
				got.ObserveN(v, n)
				for i := int64(0); i < n; i++ {
					want.Observe(v)
				}
				if g, w := marshal(&got), marshal(&want); g != w {
					t.Errorf("prefill=%v ObserveN(%d, %d) = %s, %d Observe calls give %s", prefill, v, n, g, n, w)
				}
			}
		}
	}
}
