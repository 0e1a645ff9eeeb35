// Package core implements DropBack, the paper's contribution: continuous
// pruning during training by constraining weight updates to the k parameters
// with the highest accumulated gradients, regenerating all other parameters
// to their initialization values on the fly, and freezing the tracked set
// after a configurable number of epochs.
package core

// SelectTopK returns a boolean mask with exactly min(k, len(scores)) true
// entries marking the k largest scores. Ties at the selection threshold are
// broken deterministically toward lower indices. This is the selection
// Algorithm 1's "sort" formalizes; the paper's bounded priority queue of
// size k is a hardware note that selects the same set.
func SelectTopK(scores []float32, k int) []bool {
	mask := make([]bool, len(scores))
	SelectTopKInto(mask, scores, k)
	return mask
}

// SelectTopKInto is SelectTopK writing into a caller-provided mask (len must
// equal len(scores)).
func SelectTopKInto(mask []bool, scores []float32, k int) {
	selectTopK(mask, scores, k, nil)
}

// selectTopK is SelectTopKInto drawing its scratch copy of the scores from
// buf, which it grows when short and returns for the next call, so a
// training loop selects without allocating.
func selectTopK(mask []bool, scores []float32, k int, buf []float32) []float32 {
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
	buf = append(buf[:0], scores...)
	thresh := kthLargestQuickselect(buf, k)
	// First pass: everything strictly above the threshold is in.
	count := 0
	for i, s := range scores {
		if s > thresh {
			mask[i] = true
			count++
		}
	}
	// Second pass: fill remaining slots with threshold ties, lowest index
	// first, for a deterministic result.
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
