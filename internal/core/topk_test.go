package core

import (
	"sort"
	"testing"
	"testing/quick"

	"dropback/internal/xorshift"
)

func maskCount(m []bool) int {
	n := 0
	for _, b := range m {
		if b {
			n++
		}
	}
	return n
}

// referenceTopK selects the k largest by full sort with index tie-breaking —
// the oracle the quickselect engine must match.
func referenceTopK(scores []float32, k int) []bool {
	type sv struct {
		s float32
		i int
	}
	vals := make([]sv, len(scores))
	for i, s := range scores {
		vals[i] = sv{s, i}
	}
	sort.Slice(vals, func(a, b int) bool {
		if vals[a].s != vals[b].s {
			return vals[a].s > vals[b].s
		}
		return vals[a].i < vals[b].i
	})
	mask := make([]bool, len(scores))
	if k > len(scores) {
		k = len(scores)
	}
	for j := 0; j < k; j++ {
		mask[vals[j].i] = true
	}
	return mask
}

func randScores(seed uint64, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = xorshift.IndexedNormal(seed, uint64(i))
	}
	return s
}

func TestSelectTopKMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 10, 100, 1000} {
		for _, k := range []int{1, 2, n / 2, n - 1, n} {
			if k < 1 {
				continue
			}
			scores := randScores(uint64(n*7+k), n)
			got := SelectTopK(scores, k)
			want := referenceTopK(scores, k)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d k=%d: mask[%d] = %v, want %v", n, k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestSelectTopKExactCount(t *testing.T) {
	f := func(seed uint64, kRaw uint16) bool {
		n := 200
		k := int(kRaw)%n + 1
		scores := randScores(seed, n)
		m := SelectTopK(scores, k)
		return maskCount(m) == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectTopKAllTies(t *testing.T) {
	scores := make([]float32, 10)
	for i := range scores {
		scores[i] = 1
	}
	m := SelectTopK(scores, 4)
	// Deterministic tie-breaking toward lower indices.
	for i := 0; i < 4; i++ {
		if !m[i] {
			t.Fatalf("index %d should be selected under tie-breaking", i)
		}
	}
	for i := 4; i < 10; i++ {
		if m[i] {
			t.Fatalf("index %d should not be selected", i)
		}
	}
}

func TestSelectTopKEdgeCases(t *testing.T) {
	scores := []float32{3, 1, 2}
	if maskCount(SelectTopK(scores, 0)) != 0 {
		t.Fatal("k=0 must select nothing")
	}
	if maskCount(SelectTopK(scores, -1)) != 0 {
		t.Fatal("negative k must select nothing")
	}
	if maskCount(SelectTopK(scores, 10)) != 3 {
		t.Fatal("k>n must select everything")
	}
	one := SelectTopK(scores, 1)
	if !one[0] || one[1] || one[2] {
		t.Fatalf("k=1 selected %v, want index 0 only", one)
	}
}

func TestSelectTopKIntoReusesMask(t *testing.T) {
	scores := []float32{5, 1, 4, 2}
	mask := []bool{true, true, true, true}
	SelectTopKInto(mask, scores, 2)
	if !mask[0] || mask[1] || !mask[2] || mask[3] {
		t.Fatalf("mask = %v, want [true false true false]", mask)
	}
}

func TestSelectTopKIntoLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length mismatch")
		}
	}()
	SelectTopKInto(make([]bool, 2), make([]float32, 3), 1)
}

func TestKthLargestAgainstSort(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		n := 50 + trial*13
		scores := randScores(uint64(trial), n)
		sorted := make([]float32, n)
		copy(sorted, scores)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a] > sorted[b] })
		for _, k := range []int{1, 2, n / 3, n - 1, n} {
			want := sorted[k-1]
			if got := kthLargestQuickselect(append([]float32(nil), scores...), k); got != want {
				t.Fatalf("quickselect k=%d: got %v, want %v", k, got, want)
			}
		}
	}
}
