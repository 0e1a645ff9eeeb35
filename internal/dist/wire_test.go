package dist

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"

	"dropback/internal/faults"
)

// buildStepPayload assembles a step payload the way the executor does: the
// fixed header, then every sample's metadata, then every sample's values.
func buildStepPayload(h StepHeader, losses []float64, correct []uint8, rows [][]float32, idx []int32) []byte {
	p := AppendStepHeader(nil, h)
	for i := range losses {
		p = AppendSample(p, losses[i], correct[i])
	}
	for _, row := range rows {
		p = AppendSampleValues(p, row, idx)
	}
	return p
}

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("the quick brown fox")
	frame := AppendFrame(nil, payload)
	if len(frame) != len(payload)+frameOverhead {
		t.Fatalf("frame is %d bytes, want payload %d + overhead %d", len(frame), len(payload), frameOverhead)
	}
	var buf []byte
	got, err := ReadFrame(bytes.NewReader(frame), &buf, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload %q round-tripped to %q", payload, got)
	}
	// A clean end of stream before any byte is io.EOF — the normal shutdown
	// signal, not a frame error.
	if _, err := ReadFrame(bytes.NewReader(nil), &buf, 1<<16); err != io.EOF {
		t.Fatalf("empty stream: got %v, want io.EOF", err)
	}
}

func TestFrameRoundTripEmptyPayload(t *testing.T) {
	frame := AppendFrame(nil, nil)
	var buf []byte
	got, err := ReadFrame(bytes.NewReader(frame), &buf, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty payload round-tripped to %d bytes", len(got))
	}
}

// TestReadFrameTruncation cuts a valid frame at every possible byte count:
// each cut must yield ErrTruncatedFrame, never a panic or a silent success.
func TestReadFrameTruncation(t *testing.T) {
	frame := AppendFrame(nil, []byte("some payload bytes"))
	var buf []byte
	for cut := 1; cut < len(frame); cut++ {
		_, err := ReadFrame(bytes.NewReader(frame[:cut]), &buf, 1<<16)
		if !errors.Is(err, ErrTruncatedFrame) {
			t.Fatalf("cut at %d of %d bytes: got %v, want ErrTruncatedFrame", cut, len(frame), err)
		}
	}
}

// TestReadFrameOversizedPrefix pins the memory-safety property: a length
// prefix beyond the limit is rejected before any allocation.
func TestReadFrameOversizedPrefix(t *testing.T) {
	frame := []byte{0xFF, 0xFF, 0xFF, 0xFF} // prefix claims ~4 GiB
	var buf []byte
	_, err := ReadFrame(bytes.NewReader(frame), &buf, 1<<20)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	if cap(buf) != 0 {
		t.Fatalf("oversized prefix allocated a %d-byte buffer", cap(buf))
	}
}

// TestReadFrameDetectsEveryPayloadBitFlip flips every bit of the payload
// section (through the faults.FlipReader used by the wire fuzzer) and
// demands a CRC mismatch for each.
func TestReadFrameDetectsEveryPayloadBitFlip(t *testing.T) {
	payload := []byte{0x01, 0x02, 0x03, 0x04, 0x05}
	frame := AppendFrame(nil, payload)
	var buf []byte
	for off := 4; off < 4+len(payload); off++ {
		for bit := 0; bit < 8; bit++ {
			r := &faults.FlipReader{R: bytes.NewReader(frame), Offset: int64(off), Bit: uint8(bit)}
			_, err := ReadFrame(r, &buf, 1<<16)
			if !errors.Is(err, ErrCRCMismatch) {
				t.Fatalf("flip offset %d bit %d: got %v, want ErrCRCMismatch", off, bit, err)
			}
		}
	}
}

func TestWriteFrameMatchesAppendFrame(t *testing.T) {
	payload := []byte("identical on both paths")
	var w bytes.Buffer
	if err := WriteFrame(&w, payload); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Bytes(), AppendFrame(nil, payload)) {
		t.Fatal("WriteFrame and AppendFrame produced different frames")
	}
}

func TestHelloRoundTrip(t *testing.T) {
	want := Handshake{
		Version: wireVersion, Rank: 2, World: 3, Seed: 0xDEADBEEFCAFE,
		Method: 1, Budget: 12345, FreezeAfter: -1, Batch: 32,
		ParamTotal: 99999, ModelHash: 0x1122334455667788, StartStep: 77,
	}
	p := AppendHello(nil, want)
	if len(p) != helloLen {
		t.Fatalf("hello payload is %d bytes, want %d", len(p), helloLen)
	}
	got, err := DecodeHello(p)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("hello round-tripped to %+v, want %+v", got, want)
	}
	if _, err := DecodeHello(p[:helloLen-1]); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("short hello: got %v, want ErrBadPayload", err)
	}
	if _, err := DecodeHello(AppendAbort(nil, 0, strings.Repeat("x", helloLen-8))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("wrong magic: got %v, want ErrBadMagic", err)
	}
}

func TestAbortRoundTrip(t *testing.T) {
	p := AppendAbort(nil, 3, "seed mismatch: 7 here, peer says 9")
	rank, reason, err := DecodeAbort(p)
	if err != nil {
		t.Fatal(err)
	}
	if rank != 3 || reason != "seed mismatch: 7 here, peer says 9" {
		t.Fatalf("abort round-tripped to rank %d reason %q", rank, reason)
	}
	// The reason is bounded in both directions so a corrupt frame cannot
	// smuggle an oversized payload through the handshake read limit.
	long := AppendAbort(nil, 0, strings.Repeat("z", 3*maxAbortReason))
	if len(long) != 8+maxAbortReason {
		t.Fatalf("oversized reason encoded to %d bytes, want %d", len(long), 8+maxAbortReason)
	}
	if _, _, err := DecodeAbort(p[:7]); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("short abort: got %v, want ErrBadPayload", err)
	}
}

// TestStepFrameBytesMatchesEncoder is the analytical half of the O(k) wire
// claim: the byte formula the test suite asserts against measured socket
// counters must agree exactly with what the encoder emits — for the dense
// exchange and for the frozen tracked-set exchange.
func TestStepFrameBytesMatchesEncoder(t *testing.T) {
	rows := [][]float32{
		{1, 2, 3, 4, 5, 6, 7},
		{8, 9, 10, 11, 12, 13, 14},
		{15, 16, 17, 18, 19, 20, 21},
	}
	losses := []float64{0.5, 1.25, 2.0}
	correct := []uint8{1, 0, 1}
	h := StepHeader{Rank: 1, Step: 42, Lo: 4, Hi: 7}

	h.Active = 7 // dense: every value crosses
	dense := buildStepPayload(h, losses, correct, rows, nil)
	if got, want := len(AppendFrame(nil, dense)), StepFrameBytes(3, 7); got != want {
		t.Fatalf("dense frame is %d bytes, StepFrameBytes says %d", got, want)
	}

	idx := []int32{0, 2, 5} // frozen: k = 3 tracked values, no index side-band
	h.Active = 3
	sparse := buildStepPayload(h, losses, correct, rows, idx)
	if got, want := len(AppendFrame(nil, sparse)), StepFrameBytes(3, 3); got != want {
		t.Fatalf("tracked frame is %d bytes, StepFrameBytes says %d", got, want)
	}
}

func TestStepPayloadRoundTripDense(t *testing.T) {
	rows := [][]float32{{1.5, -2.5, 3.5}, {4.5, 5.5, float32(math.Inf(1))}}
	h := StepHeader{Rank: 0, Step: 9, Lo: 2, Hi: 4, Active: 3}
	p := buildStepPayload(h, []float64{0.25, 0.75}, []uint8{0, 1}, rows, nil)
	sp, err := ParseStep(p)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Hdr != h || sp.Samples() != 2 {
		t.Fatalf("header round-tripped to %+v (%d samples)", sp.Hdr, sp.Samples())
	}
	for i := 0; i < 2; i++ {
		loss, c := sp.Sample(i)
		if loss != []float64{0.25, 0.75}[i] || c != []uint8{0, 1}[i] {
			t.Fatalf("sample %d meta: loss %v correct %d", i, loss, c)
		}
		dst := make([]float32, 3)
		sp.CopyValues(i, dst, nil)
		for j := range dst {
			if math.Float32bits(dst[j]) != math.Float32bits(rows[i][j]) {
				t.Fatalf("sample %d value %d: %v vs %v", i, j, dst[j], rows[i][j])
			}
		}
	}
}

// TestStepPayloadScatterIndexed pins the frozen-path scatter: value j lands
// at dst[idx[j]] and untouched entries keep their prior contents (which the
// executor relies on being harmless, not on being cleared).
func TestStepPayloadScatterIndexed(t *testing.T) {
	row := []float32{10, 11, 12, 13, 14, 15}
	idx := []int32{1, 3, 4}
	h := StepHeader{Rank: 1, Step: 3, Lo: 0, Hi: 1, Active: 3}
	p := buildStepPayload(h, []float64{1}, []uint8{1}, [][]float32{row}, idx)
	sp, err := ParseStep(p)
	if err != nil {
		t.Fatal(err)
	}
	dst := []float32{-1, -1, -1, -1, -1, -1}
	sp.CopyValues(0, dst, idx)
	want := []float32{-1, 11, -1, 13, 14, -1}
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("scatter produced %v, want %v", dst, want)
		}
	}
}

func TestParseStepRejectsMalformed(t *testing.T) {
	h := StepHeader{Rank: 0, Step: 1, Lo: 0, Hi: 2, Active: 3}
	good := buildStepPayload(h, []float64{1, 2}, []uint8{0, 1}, [][]float32{{1, 2, 3}, {4, 5, 6}}, nil)
	if _, err := ParseStep(good); err != nil {
		t.Fatal(err)
	}
	// Inverted row span.
	bad := buildStepPayload(StepHeader{Lo: 5, Hi: 2}, nil, nil, nil, nil)
	if _, err := ParseStep(bad); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("inverted span: got %v, want ErrBadPayload", err)
	}
	// Body shorter than samples × (meta + values).
	if _, err := ParseStep(good[:len(good)-1]); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("short body: got %v, want ErrBadPayload", err)
	}
	// Body longer than declared.
	if _, err := ParseStep(append(append([]byte(nil), good...), 0)); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("long body: got %v, want ErrBadPayload", err)
	}
	// Header too short.
	if _, err := ParseStep(good[:stepHeaderLen-1]); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("short header: got %v, want ErrBadPayload", err)
	}
	// Not a step payload.
	if _, err := ParseStep(AppendHello(nil, Handshake{})); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("hello payload: got %v, want ErrBadMagic", err)
	}
}

// buildPartialPayload assembles a partial payload the way the executor
// does: the fixed header, then the running sums.
func buildPartialPayload(h PartialHeader, sums []float32) []byte {
	return AppendSampleValues(AppendPartialHeader(nil, h), sums, nil)
}

// TestPartialFrameBytesMatchesEncoder pins the dense chain's frame formula
// against the encoder, and its independence from the rows the sums cover.
func TestPartialFrameBytesMatchesEncoder(t *testing.T) {
	sums := []float32{1, 2, 3, 4, 5, 6, 7}
	for _, rows := range []uint32{0, 1, 32} {
		p := buildPartialPayload(PartialHeader{Rank: 1, Step: 42, Rows: rows, Active: 7}, sums)
		if got, want := len(AppendFrame(nil, p)), PartialFrameBytes(7); got != want {
			t.Fatalf("%d rows: partial frame is %d bytes, PartialFrameBytes says %d", rows, got, want)
		}
	}
}

func TestPartialPayloadRoundTrip(t *testing.T) {
	sums := []float32{1.5, float32(math.Copysign(0, -1)), float32(math.Inf(-1)), 4.25, -5}
	h := PartialHeader{Rank: 2, Step: 77, Rows: 9, Active: 5, Loss: 3.0000000000000004, Correct: 9}
	sp, err := ParsePartial(buildPartialPayload(h, sums))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Hdr != h {
		t.Fatalf("header round-tripped to %+v, want %+v", sp.Hdr, h)
	}
	// Copy in two pieces, the way the executor fills parameter by parameter.
	dst := make([]float32, 5)
	sp.CopyValues(dst[:2], 0)
	sp.CopyValues(dst[2:], 2)
	for j := range dst {
		if math.Float32bits(dst[j]) != math.Float32bits(sums[j]) {
			t.Fatalf("value %d: %v vs %v", j, dst[j], sums[j])
		}
	}
}

func TestParsePartialRejectsMalformed(t *testing.T) {
	h := PartialHeader{Rank: 0, Step: 1, Rows: 2, Active: 3, Loss: 1, Correct: 2}
	good := buildPartialPayload(h, []float32{1, 2, 3})
	if _, err := ParsePartial(good); err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string][]byte{
		"short body":   good[:len(good)-1],
		"long body":    append(append([]byte(nil), good...), 0),
		"short header": good[:partialHeaderLen-1],
		"correct > rows": buildPartialPayload(PartialHeader{Rows: 2, Active: 1, Correct: 3},
			[]float32{1}),
	} {
		if _, err := ParsePartial(p); !errors.Is(err, ErrBadPayload) {
			t.Fatalf("%s: got %v, want ErrBadPayload", name, err)
		}
	}
	if _, err := ParsePartial(AppendHello(nil, Handshake{})); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("hello payload: got %v, want ErrBadMagic", err)
	}
}

func TestPayloadMagic(t *testing.T) {
	for _, p := range [][]byte{
		AppendHello(nil, Handshake{}),
		AppendStepHeader(nil, StepHeader{}),
		AppendPartialHeader(nil, PartialHeader{}),
		AppendAbort(nil, 0, "r"),
	} {
		if _, err := PayloadMagic(p); err != nil {
			t.Fatalf("valid payload rejected: %v", err)
		}
	}
	if _, err := PayloadMagic([]byte{0, 1, 2, 3}); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("unknown magic: got %v, want ErrBadMagic", err)
	}
	if _, err := PayloadMagic([]byte{0, 1}); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("short payload: got %v, want ErrBadMagic", err)
	}
}
