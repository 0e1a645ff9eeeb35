// Package core implements DropBack, the paper's contribution: continuous
// pruning during training by constraining weight updates to the k parameters
// with the highest accumulated gradients, regenerating all other parameters
// to their initialization values on the fly, and freezing the tracked set
// after a configurable number of epochs.
package core

import "slices"

// TopKStrategy selects the algorithm used to find the k highest accumulated
// gradients each step.
type TopKStrategy int

const (
	// StrategyQuickselect uses expected-O(n) selection over the full score
	// vector; this is what Algorithm 1's "sort" formalizes.
	StrategyQuickselect TopKStrategy = iota
	// StrategyHeap streams scores through a bounded min-heap of size k —
	// the paper's "practical implementation" note: "the tracked accumulated
	// gradient set is stored [in] a priority queue of size k, with incoming
	// gradients higher than the stored minimum evicting the minimum".
	StrategyHeap
)

// String returns the strategy name.
func (s TopKStrategy) String() string {
	switch s {
	case StrategyQuickselect:
		return "quickselect"
	case StrategyHeap:
		return "heap"
	default:
		return "unknown"
	}
}

// SelectTopK returns a boolean mask with exactly min(k, len(scores)) true
// entries marking the k largest scores. Ties at the selection threshold are
// broken deterministically toward lower indices, so both strategies return
// identical masks.
func SelectTopK(scores []float32, k int, strategy TopKStrategy) []bool {
	mask := make([]bool, len(scores))
	SelectTopKInto(mask, scores, k, strategy)
	return mask
}

// SelectTopKInto is SelectTopK writing into a caller-provided mask (len must
// equal len(scores)).
func SelectTopKInto(mask []bool, scores []float32, k int, strategy TopKStrategy) {
	selectTopK(mask, scores, k, strategy, nil)
}

// selectTopK is SelectTopKInto drawing its scratch (quickselect's copy of
// the scores, or the heap) from buf, which it grows when short and returns
// for the next call, so a training loop selects without allocating.
func selectTopK(mask []bool, scores []float32, k int, strategy TopKStrategy, buf []float32) []float32 {
	if len(mask) != len(scores) {
		panic("core: mask length must equal scores length")
	}
	for i := range mask {
		mask[i] = false
	}
	if k <= 0 {
		return buf
	}
	if k >= len(scores) {
		for i := range mask {
			mask[i] = true
		}
		return buf
	}
	var thresh float32
	switch strategy {
	case StrategyHeap:
		buf = slices.Grow(buf[:0], k)
		thresh = kthLargestHeap(scores, k, buf)
	default:
		buf = append(buf[:0], scores...)
		thresh = kthLargestQuickselect(buf, k)
	}
	// First pass: everything strictly above the threshold is in.
	count := 0
	for i, s := range scores {
		if s > thresh {
			mask[i] = true
			count++
		}
	}
	// Second pass: fill remaining slots with threshold ties, lowest index
	// first, for a deterministic, strategy-independent result.
	for i, s := range scores {
		if count == k {
			break
		}
		if s == thresh && !mask[i] {
			mask[i] = true
			count++
		}
	}
	return buf
}

// kthLargestQuickselect returns the k-th largest value (1-based) of buf
// using in-place quickselect with three-way (Dutch national flag)
// partitioning, so it reorders buf: callers pass a scratch copy. Three-way
// partitioning matters here: DropBack's score vectors contain huge runs of
// duplicates (every zero-gradient untracked weight scores exactly 0), which
// degrade a two-way quickselect to O(n²).
func kthLargestQuickselect(buf []float32, k int) float32 {
	// Select index k-1 in descending order == index n-k in ascending order.
	target := len(buf) - k
	lo, hi := 0, len(buf)-1
	for lo < hi {
		ltEnd, gtStart := partition3(buf, lo, hi)
		switch {
		case target < ltEnd:
			hi = ltEnd - 1
		case target >= gtStart:
			lo = gtStart
		default:
			return buf[target] // inside the equal-to-pivot run
		}
	}
	return buf[target]
}

// partition3 partitions a[lo..hi] into (< pivot | == pivot | > pivot) using
// a median-of-three pivot and returns (ltEnd, gtStart): the equal run
// occupies a[ltEnd:gtStart].
func partition3(a []float32, lo, hi int) (ltEnd, gtStart int) {
	mid := lo + (hi-lo)/2
	// Median-of-three pivot choice.
	if a[mid] < a[lo] {
		a[mid], a[lo] = a[lo], a[mid]
	}
	if a[hi] < a[lo] {
		a[hi], a[lo] = a[lo], a[hi]
	}
	if a[hi] < a[mid] {
		a[hi], a[mid] = a[mid], a[hi]
	}
	pivot := a[mid]
	lt, i, gt := lo, lo, hi
	for i <= gt {
		switch {
		case a[i] < pivot:
			a[lt], a[i] = a[i], a[lt]
			lt++
			i++
		case a[i] > pivot:
			a[i], a[gt] = a[gt], a[i]
			gt--
		default:
			i++
		}
	}
	return lt, gt + 1
}

// kthLargestHeap returns the k-th largest value by streaming scores through
// a bounded min-heap of size k — the priority-queue implementation the
// paper describes for hardware. The heap root after the stream is the
// selection threshold. The heap is built in h's backing array.
func kthLargestHeap(scores []float32, k int, h []float32) float32 {
	h = h[:0]
	for _, s := range scores {
		if len(h) < k {
			h = append(h, s)
			siftUp(h, len(h)-1)
		} else if s > h[0] {
			h[0] = s
			siftDown(h, 0)
		}
	}
	return h[0]
}

func siftUp(h []float32, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func siftDown(h []float32, i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h[l] < h[small] {
			small = l
		}
		if r < n && h[r] < h[small] {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}
