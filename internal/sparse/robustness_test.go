package sparse_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"dropback/internal/sparse"
	"dropback/internal/xorshift"

	"dropback"
)

// TestReadNeverPanicsOnCorruptInput flips and truncates bytes of a valid
// artifact and asserts Read either succeeds or returns an error — never
// panics or allocates absurdly. This is the hardening a deployment loader
// needs against damaged flash/transfer corruption.
func TestReadNeverPanicsOnCorruptInput(t *testing.T) {
	m := dropback.MNIST100100(3)
	// Deviate a few weights so the artifact has entries.
	for g := 0; g < 50; g++ {
		m.Set.Set(g*7, float32(g))
	}
	a := sparse.Compress(m)
	var buf bytes.Buffer
	if err := a.Write(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	check := func(data []byte, label string) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Read panicked on %s: %v", label, r)
			}
		}()
		art, err := sparse.Read(bytes.NewReader(data))
		if err == nil && art != nil {
			// A mutated stream may still parse; applying it must not
			// panic either (errors are fine).
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Apply panicked on %s: %v", label, r)
				}
			}()
			_ = art.Apply(dropback.MNIST100100(3))
		}
	}

	// Byte flips at deterministic pseudo-random positions.
	rng := xorshift.NewState64(99)
	for trial := 0; trial < 200; trial++ {
		mutated := make([]byte, len(valid))
		copy(mutated, valid)
		pos := int(rng.Uint32n(uint32(len(mutated))))
		mutated[pos] ^= byte(1 << rng.Uint32n(8))
		check(mutated, "byte flip")
	}
	// Truncations at every length up to a prefix and a spread beyond.
	for cut := 0; cut < 64 && cut < len(valid); cut++ {
		check(valid[:cut], "short truncation")
	}
	for cut := 64; cut < len(valid); cut += len(valid)/37 + 1 {
		check(valid[:cut], "truncation")
	}
	// Random garbage.
	for trial := 0; trial < 50; trial++ {
		n := int(rng.Uint32n(256))
		junk := make([]byte, n)
		for i := range junk {
			junk[i] = byte(rng.Next())
		}
		check(junk, "garbage")
	}
}

// TestReadAllocatesOnlyWhatArrives feeds a header that claims 2³⁰ entries
// (an 8 GiB entry block) over a stream that ends right after it. Read must
// fail with io.ErrUnexpectedEOF without first allocating the claimed size.
func TestReadAllocatesOnlyWhatArrives(t *testing.T) {
	var hdr bytes.Buffer
	for _, v := range []any{sparse.Magic, sparse.Version, uint64(1), uint64(1) << 33, uint32(1) << 30} {
		if err := binary.Write(&hdr, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := sparse.Read(bytes.NewReader(hdr.Bytes()))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Read error = %v, want io.ErrUnexpectedEOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("Read allocated %d bytes for a %d-byte stream", grew, hdr.Len())
	}
}
