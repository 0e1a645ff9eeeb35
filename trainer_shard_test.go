package dropback

import (
	"testing"
	"testing/quick"

	"dropback/internal/data"
	"dropback/internal/tensor"
)

// checkShardPartition asserts the shardRangesInto contract for n rows over
// w ≥ 1 spans: contiguous ascending spans that cover [0, n) exactly once,
// with sizes differing by at most one.
func checkShardPartition(t interface{ Fatalf(string, ...interface{}) }, n, w int) {
	ranges := shardRangesInto(make([]shardRange, w), n)
	next := 0
	minSize, maxSize := n+1, -1
	for i, r := range ranges {
		if r.Lo != next {
			t.Fatalf("shardRangesInto(%d,%d): range %d starts at %d, want %d", n, w, i, r.Lo, next)
		}
		if r.Hi < r.Lo {
			t.Fatalf("shardRangesInto(%d,%d): range %d is inverted: %+v", n, w, i, r)
		}
		size := r.Hi - r.Lo
		if size < minSize {
			minSize = size
		}
		if size > maxSize {
			maxSize = size
		}
		next = r.Hi
	}
	if next != n {
		t.Fatalf("shardRangesInto(%d,%d) covers [0,%d), want [0,%d)", n, w, next, n)
	}
	if n >= 1 && maxSize-minSize > 1 {
		t.Fatalf("shardRangesInto(%d,%d): shard sizes span [%d,%d], want balanced within 1", n, w, minSize, maxSize)
	}
}

func TestShardRangesPartitionProperty(t *testing.T) {
	// Exhaustive small grid, including W > n, W = n, n = 0 and W = 1.
	for n := 0; n <= 33; n++ {
		for w := 1; w <= 9; w++ {
			checkShardPartition(t, n, w)
		}
	}
	f := func(n uint16, w uint8) bool {
		checkShardPartition(t, int(n)%1024, int(w)%64+1)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func FuzzShardRanges(f *testing.F) {
	f.Add(0, 1)
	f.Add(1, 4)
	f.Add(8, 3)
	f.Add(3, 8)
	f.Add(1024, 16)
	f.Fuzz(func(t *testing.T, n, w int) {
		if n < 0 || n > 1<<20 || w < 1 || w > 4096 {
			t.Skip()
		}
		checkShardPartition(t, n, w)
	})
}

// TestEpochCoversEverySampleExactlyOnce is the end-to-end sharding
// property: for any (batchSize, workers, datasetLen) — including remainder
// batches the batcher drops and workers exceeding the batch size — one
// epoch's batches, split across shards, schedule every scheduled sample
// index exactly once, and the dropped remainder is exactly
// datasetLen mod batchSize samples.
func TestEpochCoversEverySampleExactlyOnce(t *testing.T) {
	for _, tc := range []struct{ n, bs, w int }{
		{20, 4, 1}, {20, 4, 3}, {21, 4, 4}, {17, 5, 2}, {7, 7, 4},
		{13, 3, 8}, {9, 2, 5}, {30, 8, 4}, {5, 1, 3}, {16, 16, 16},
	} {
		ds := &data.Dataset{X: tensor.New(tc.n, 2), Y: make([]int, tc.n), Classes: 2}
		b := data.NewBatcher(ds, tc.bs, 42)
		bs := tc.bs
		if bs > tc.n {
			bs = tc.n // NewBatcher clamps the batch size to the dataset
		}
		seen := make(map[int]int)
		nb := b.BatchesPerEpoch()
		if nb != tc.n/bs {
			t.Fatalf("(%d,%d): BatchesPerEpoch = %d, want %d", tc.n, tc.bs, nb, tc.n/bs)
		}
		for i := 0; i < nb; i++ {
			st := b.State()
			batchIdx := st.Perm[st.Pos : st.Pos+bs]
			// Split the batch rows across workers the way the executor
			// does and record every scheduled sample.
			covered := make([]bool, bs)
			for _, r := range shardRangesInto(make([]shardRange, tc.w), bs) {
				for row := r.Lo; row < r.Hi; row++ {
					if covered[row] {
						t.Fatalf("(%d,%d,%d): batch row %d scheduled twice", tc.n, tc.bs, tc.w, row)
					}
					covered[row] = true
					seen[batchIdx[row]]++
				}
			}
			for row, ok := range covered {
				if !ok {
					t.Fatalf("(%d,%d,%d): batch row %d never scheduled", tc.n, tc.bs, tc.w, row)
				}
			}
			b.Next()
		}
		if len(seen) != nb*bs {
			t.Fatalf("(%d,%d,%d): epoch scheduled %d distinct samples, want %d", tc.n, tc.bs, tc.w, len(seen), nb*bs)
		}
		for idx, count := range seen {
			if count != 1 {
				t.Fatalf("(%d,%d,%d): sample %d scheduled %d times in one epoch", tc.n, tc.bs, tc.w, idx, count)
			}
			if idx < 0 || idx >= tc.n {
				t.Fatalf("(%d,%d,%d): sample index %d out of range", tc.n, tc.bs, tc.w, idx)
			}
		}
	}
}
