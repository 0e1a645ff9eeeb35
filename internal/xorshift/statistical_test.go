package xorshift

import (
	"math"
	"testing"
)

// A small randomness battery over the generators the regeneration contract
// depends on: monobit balance, byte-frequency chi-squared, and serial
// correlation. These are not NIST-strength, but they catch the classic
// xorshift implementation mistakes (wrong taps, state truncation) that
// would silently skew every initialization in the repository.

// bitBalance returns the fraction of one-bits over n outputs of next().
func bitBalance(n int, next func() uint32) float64 {
	ones := 0
	for i := 0; i < n; i++ {
		v := next()
		for b := 0; b < 32; b++ {
			if v&(1<<b) != 0 {
				ones++
			}
		}
	}
	return float64(ones) / float64(32*n)
}

// byteChi2 returns the chi-squared statistic of byte frequencies over n
// outputs (4n bytes, 256 bins; expected ≈ 255 for random data).
func byteChi2(n int, next func() uint32) float64 {
	var counts [256]int
	for i := 0; i < n; i++ {
		v := next()
		counts[byte(v)]++
		counts[byte(v>>8)]++
		counts[byte(v>>16)]++
		counts[byte(v>>24)]++
	}
	expected := float64(4*n) / 256
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	return chi2
}

// serialCorrelation returns the lag-1 correlation of the uniform-[0,1)
// stream.
func serialCorrelation(n int, next func() float64) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = next()
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(n)
	var num, den float64
	for i := 0; i < n-1; i++ {
		num += (xs[i] - mean) * (xs[i+1] - mean)
	}
	for _, x := range xs {
		den += (x - mean) * (x - mean)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

func TestMonobitBalance(t *testing.T) {
	const n = 50000
	g64 := NewState64(12345)
	gens := map[string]func() uint32{
		"xorshift32": NewState32(12345).Next,
		"xorshift64": func() uint32 { return uint32(g64.Next()) },
	}
	for name, next := range gens {
		frac := bitBalance(n, next)
		if math.Abs(frac-0.5) > 0.002 {
			t.Errorf("%s: one-bit fraction %v, want ~0.5", name, frac)
		}
	}
}

func TestByteFrequencyChi2(t *testing.T) {
	// 255 dof: the statistic should fall well inside [180, 340] for random
	// data (roughly ±4σ).
	const n = 100000
	gens := map[string]func() uint32{
		"xorshift32": NewState32(999).Next,
	}
	for name, next := range gens {
		chi2 := byteChi2(n, next)
		if chi2 < 180 || chi2 > 340 {
			t.Errorf("%s: byte chi² = %v, outside [180, 340]", name, chi2)
		}
	}
}

func TestSerialCorrelationLow(t *testing.T) {
	const n = 100000
	g64 := NewState64(77)
	if r := serialCorrelation(n, g64.Float64); math.Abs(r) > 0.01 {
		t.Errorf("xorshift64 lag-1 correlation %v too high", r)
	}
	// The indexed stream (DropBack's regeneration path) must also be
	// serially uncorrelated across adjacent indices.
	i := uint64(0)
	indexed := func() float64 {
		v := float64(IndexedUniform(5, i))
		i++
		return v
	}
	if r := serialCorrelation(n, indexed); math.Abs(r) > 0.01 {
		t.Errorf("indexed stream lag-1 correlation %v too high", r)
	}
}
