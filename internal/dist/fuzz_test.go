package dist

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// fuzzMaxPayload keeps the fuzzer's allocations bounded; real clusters run
// with a much larger limit, but the decoder's behavior must not depend on it.
const fuzzMaxPayload = 1 << 16

// isTypedWireError reports whether err belongs to the decoder's declared
// error taxonomy (or is a plain stream-end condition). FuzzReadFrame holds
// the whole decode path to this set: arbitrary bytes may be rejected, but
// only with a classified error.
func isTypedWireError(err error) bool {
	for _, want := range []error{
		ErrFrameTooLarge, ErrTruncatedFrame, ErrCRCMismatch,
		ErrBadMagic, ErrBadPayload, ErrStaleStep, ErrShardMismatch,
		ErrPeerAborted, ErrHandshakeMismatch, io.EOF,
	} {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}

// FuzzReadFrame feeds arbitrary byte streams through the full receive path —
// frame deframing, CRC check, magic dispatch, and payload decoding — and
// requires that every outcome is either a structurally valid payload or a
// typed error. No input may panic, allocate beyond the frame limit, or
// decode to a payload that re-encodes differently (the round-trip check
// below catches silent misparses).
func FuzzReadFrame(f *testing.F) {
	// Well-formed frames of every payload kind.
	hello := AppendHello(nil, Handshake{
		Version: wireVersion, Rank: 1, World: 3, Seed: 42, Method: 1,
		Budget: 1000, FreezeAfter: 2, Batch: 16, ParamTotal: 5000,
		ModelHash: 0xABCDEF, StartStep: 7,
	})
	step := buildStepPayload(
		StepHeader{Rank: 2, Step: 11, Lo: 3, Hi: 5, Active: 4},
		[]float64{0.5, 1.5}, []uint8{1, 0},
		[][]float32{{1, 2, 3, 4}, {5, 6, 7, 8}}, nil,
	)
	abort := AppendAbort(nil, 0, "deliberate shutdown")
	f.Add(AppendFrame(nil, hello))
	f.Add(AppendFrame(nil, step))
	f.Add(AppendFrame(nil, partialSeed()))
	f.Add(AppendFrame(nil, abort))

	// Truncations at interesting boundaries.
	frame := AppendFrame(nil, step)
	f.Add(frame[:2])                               // inside the length prefix
	f.Add(frame[:6])                               // inside the payload
	f.Add(frame[:len(frame)-2])                    // inside the CRC trailer
	f.Add([]byte{})                                // empty stream
	f.Add([]byte{0, 0, 0, 0})                      // zero-length frame, missing CRC
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3}) // oversized prefix

	// Single-bit corruptions in the prefix, payload, and trailer.
	for _, off := range []int{0, 3, 4, 12, len(frame) - 1} {
		mut := append([]byte(nil), frame...)
		mut[off] ^= 0x10
		f.Add(mut)
	}

	// A stale-step header inside a valid frame (decodes fine at this layer;
	// the cluster rejects it against its own counter — the fuzz target just
	// must not confuse it with corruption).
	stale := buildStepPayload(StepHeader{Rank: 2, Step: 9, Lo: 0, Hi: 1, Active: 2},
		[]float64{1}, []uint8{1}, [][]float32{{1, 2}}, nil)
	f.Add(AppendFrame(nil, stale))

	// Two frames back to back: the reader must consume exactly one.
	f.Add(append(AppendFrame(nil, abort), AppendFrame(nil, hello)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var buf []byte
		payload, err := ReadFrame(r, &buf, fuzzMaxPayload)
		if err != nil {
			if !isTypedWireError(err) {
				t.Fatalf("untyped deframe error: %v", err)
			}
			return
		}
		// The frame checked out; every payload decoder must now either
		// produce a structurally valid value or a typed error — on any
		// payload, not just the kind its magic names.
		magic, merr := PayloadMagic(payload)
		if merr != nil {
			if !isTypedWireError(merr) {
				t.Fatalf("untyped magic error: %v", merr)
			}
			return
		}
		switch magic {
		case magicHello:
			h, derr := DecodeHello(payload)
			if derr != nil {
				if !isTypedWireError(derr) {
					t.Fatalf("untyped hello error: %v", derr)
				}
				return
			}
			if !bytes.Equal(AppendHello(nil, h), payload) {
				t.Fatalf("hello did not round-trip: %+v", h)
			}
		case magicStep:
			sp, derr := ParseStep(payload)
			if derr != nil {
				if !isTypedWireError(derr) {
					t.Fatalf("untyped step error: %v", derr)
				}
				return
			}
			// Exercise every accessor over the validated view: all reads
			// must stay in bounds for any payload ParseStep accepted. With
			// zero samples Active is unconstrained by the length check (the
			// body is empty either way), so size the scratch only when rows
			// exist — then Active is bounded by the frame limit.
			if sp.Samples() > 0 {
				dst := make([]float32, sp.Hdr.Active)
				for i := 0; i < sp.Samples(); i++ {
					sp.Sample(i)
					sp.CopyValues(i, dst, nil)
				}
			}
		case magicPartial:
			checkPartial(t, payload)
		case magicAbort:
			if _, _, derr := DecodeAbort(payload); derr != nil && !isTypedWireError(derr) {
				t.Fatalf("untyped abort error: %v", derr)
			}
		}
	})
}

// partialSeed is a well-formed partial payload: three sums over rows [0, 5).
func partialSeed() []byte {
	return AppendSampleValues(AppendPartialHeader(nil, PartialHeader{
		Rank: 1, Step: 4, Rows: 5, Active: 3, Loss: 2.5, Correct: 4,
	}), []float32{0.5, -1, 7}, nil)
}

// checkPartial holds ParsePartial to its contract on one payload: a typed
// error, or a view whose every value can be read in bounds and which
// re-encodes to exactly the input bytes.
func checkPartial(t *testing.T, p []byte) {
	sp, err := ParsePartial(p)
	if err != nil {
		if !isTypedWireError(err) {
			t.Fatalf("untyped partial error: %v", err)
		}
		return
	}
	if sp.Hdr.Correct > sp.Hdr.Rows {
		t.Fatalf("accepted %d correct of %d rows", sp.Hdr.Correct, sp.Hdr.Rows)
	}
	// The length check bounds Active by len(p), so this is never larger
	// than the input.
	sums := make([]float32, sp.Hdr.Active)
	sp.CopyValues(sums, 0)
	if !bytes.Equal(AppendSampleValues(AppendPartialHeader(nil, sp.Hdr), sums, nil), p) {
		t.Fatalf("partial payload did not round-trip: %+v", sp.Hdr)
	}
}

// FuzzParsePartial feeds arbitrary payload bytes (already deframed) to the
// dense chain's partial-sum parser: every input must be rejected with a
// typed error or parse to a view whose accessors stay in bounds and which
// re-encodes byte for byte — never a panic, never an over-read.
func FuzzParsePartial(f *testing.F) {
	good := partialSeed()
	f.Add(good)
	f.Add(good[:partialHeaderLen])   // header only, Active says 3
	f.Add(good[:partialHeaderLen-1]) // short header
	f.Add(append(append([]byte(nil), good...), 0))
	f.Add(AppendPartialHeader(nil, PartialHeader{Rows: 1, Correct: 2}))
	f.Add(AppendPartialHeader(nil, PartialHeader{Active: 0xFFFFFFFF}))
	f.Add(AppendStepHeader(nil, StepHeader{}))
	f.Add([]byte{})
	f.Fuzz(checkPartial)
}
