package checkpoint

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzRead drives the dense-checkpoint decoder with arbitrary bytes. The
// invariants: Read never panics and never allocates absurdly, and anything
// that parses must survive Apply's validation against a real model without
// panicking (errors are fine). The seed corpus covers the envelope with and
// without a training-state section, corrupt headers (the retired version 1
// among them), and truncations at interesting places.
func FuzzRead(f *testing.F) {
	m := trainedModel(31)
	var v2 bytes.Buffer
	if err := Capture(m).Write(&v2); err != nil {
		f.Fatal(err)
	}
	valid := v2.Bytes()
	f.Add(valid)

	var withTrain bytes.Buffer
	ck := Capture(m)
	ck.Train = sampleTrainState(42)
	if err := ck.Write(&withTrain); err != nil {
		f.Fatal(err)
	}
	f.Add(withTrain.Bytes())

	// Corrupt headers: wrong magic, unknown or retired versions.
	badMagic := append([]byte(nil), valid...)
	badMagic[0] ^= 0xFF
	f.Add(badMagic)
	for _, v := range []uint32{1, 99} {
		badVersion := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(badVersion[4:], v)
		f.Add(badVersion)
	}

	// Truncations: inside the header, at the first section boundary, just
	// before the end sentinel.
	f.Add([]byte{})
	f.Add(valid[:6])
	f.Add(valid[:16])
	f.Add(valid[:len(valid)-16])
	f.Add(valid[:len(valid)-1])

	// A section with an implausible declared length.
	hugeLen := append([]byte(nil), valid[:16]...)
	hugeLen = append(hugeLen, []byte{0x53, 0x4D, 0x52, 0x50}...) // "PRMS"
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], 1<<40)
	hugeLen = append(hugeLen, n[:]...)
	f.Add(hugeLen)

	// One target model reused across iterations: Apply validates before it
	// writes, so a mutated model is still a valid target and per-iteration
	// reconstruction would only slow the fuzzer down.
	fresh := trainedModel(31)
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever parsed must be safe to validate and apply.
		_ = ck.Apply(fresh)
	})
}
