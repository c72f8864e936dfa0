package main

import (
	"math"
	"math/bits"
	"sync"
	"time"
)

// hist is a bounded log-linear histogram of durations: each power-of-two
// range of nanoseconds is split into subBuckets linear buckets, so memory
// is fixed (64 KiB) whatever the run length, and a quantile read from it
// is within 1/subBuckets of the recorded value. Quantiles interpolate
// inside the bucket by rank, so nearby runs do not snap to the same
// bucket edge. Failed operations are recorded as misses: they count in
// the rank as +Inf, exactly like a request that never completes.
type hist struct {
	mu     sync.Mutex
	counts [64 * subBuckets]uint64
	n      uint64 // finite samples
	misses uint64 // samples counted as +Inf
	sum    float64
}

const (
	subBits    = 7
	subBuckets = 1 << subBits
)

func bucketOf(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	exp := bits.Len64(v) - 1 - subBits // v >> exp lies in [subBuckets, 2*subBuckets)
	return (exp+1)*subBuckets + int(v>>uint(exp)) - subBuckets
}

// bucketBounds returns the half-open value range [lo, hi) of bucket b.
func bucketBounds(b int) (lo, hi float64) {
	if b < subBuckets {
		return float64(b), float64(b + 1)
	}
	exp := b/subBuckets - 1
	mant := uint64(b%subBuckets + subBuckets)
	return float64(mant << uint(exp)), float64((mant + 1) << uint(exp))
}

// Observe records one duration.
func (h *hist) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	b := bucketOf(uint64(d))
	h.mu.Lock()
	h.counts[b]++
	h.n++
	h.sum += float64(d)
	h.mu.Unlock()
}

// Miss records one operation that failed or missed its deadline.
func (h *hist) Miss() {
	h.mu.Lock()
	h.misses++
	h.mu.Unlock()
}

// Count returns the number of finite samples.
func (h *hist) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Ops returns the number of recorded operations, failed ones included.
func (h *hist) Ops() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n + h.misses
}

// Mean returns the mean of the finite samples (0 with none).
func (h *hist) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	return time.Duration(h.sum / float64(h.n))
}

// Quantile returns the q-quantile (0 < q < 1) over finite samples and
// misses together, +Inf when the rank falls among the misses and 0 when
// nothing was recorded.
func (h *hist) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	total := h.n + h.misses
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	if rank > float64(h.n) {
		return math.Inf(1)
	}
	seen := 0.0
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := bucketBounds(b)
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	lo, hi := bucketBounds(len(h.counts) - 1)
	return (lo + hi) / 2
}

// QuantileMS is Quantile in milliseconds.
func (h *hist) QuantileMS(q float64) float64 { return h.Quantile(q) / 1e6 }

// QuantileUS is Quantile in microseconds.
func (h *hist) QuantileUS(q float64) float64 { return h.Quantile(q) / 1e3 }
