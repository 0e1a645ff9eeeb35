// Package dist implements stdlib-only multi-process data-parallel training:
// every node trains a contiguous shard of each minibatch through the batched
// shard kernels and, over TCP, length-prefixed and CRC-framed, either passes
// running gradient sums down the rank chain (while the exchange is dense) or
// exchanges per-sample tracked-set rows (once DropBack freezes), so the fold
// replays the sequential trainer's arithmetic bit-for-bit.
//
// The wire layer in this file is deliberately dumb: fixed-layout big-endian
// frames with a CRC32 trailer, four payload kinds (hello, step, partial,
// abort), and typed errors for every way a frame can be wrong. Anything a
// peer sends — truncated, bit-flipped, oversized, stale — must surface as
// one of these errors, never a panic and never a silent misfold;
// FuzzReadFrame and FuzzParsePartial hold the decoders to that.
package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Typed wire errors. Everything the decoder can reject wraps one of these,
// so callers (and the fault tests) classify failures with errors.Is.
var (
	// ErrFrameTooLarge means a length prefix exceeded the reader's limit —
	// a corrupt prefix or a hostile peer; the frame is not read.
	ErrFrameTooLarge = errors.New("dist: frame length exceeds limit")
	// ErrTruncatedFrame means the stream ended inside a frame.
	ErrTruncatedFrame = errors.New("dist: truncated frame")
	// ErrCRCMismatch means the payload's CRC32 trailer did not match.
	ErrCRCMismatch = errors.New("dist: frame CRC mismatch")
	// ErrBadMagic means the payload's leading magic named no known kind.
	ErrBadMagic = errors.New("dist: unknown payload magic")
	// ErrBadPayload means a structurally invalid payload body.
	ErrBadPayload = errors.New("dist: malformed payload")
	// ErrStaleStep means a step frame carried the wrong step counter.
	ErrStaleStep = errors.New("dist: stale step header")
	// ErrShardMismatch means a peer's shard layout (rank, row span, active
	// count) disagreed with the local partition.
	ErrShardMismatch = errors.New("dist: shard layout mismatch")
	// ErrPeerAborted means the peer sent an abort frame; the message carries
	// its reason.
	ErrPeerAborted = errors.New("dist: peer aborted")
	// ErrHandshakeMismatch means the peer's hello disagreed on a field that
	// would break bit-identity (seed, budget, model hash, …).
	ErrHandshakeMismatch = errors.New("dist: handshake mismatch")
)

// wireVersion is bumped on any incompatible frame-layout change; peers with
// different versions refuse each other at handshake. Version 2 added the
// partial-sum payload of the dense rank chain.
const wireVersion = 2

// Payload magics (first four bytes of every payload).
const (
	magicHello   uint32 = 0x44424831 // "DBH1"
	magicStep    uint32 = 0x44425331 // "DBS1"
	magicPartial uint32 = 0x44425031 // "DBP1"
	magicAbort   uint32 = 0x44424131 // "DBA1"
)

// frameOverhead is the framing cost around every payload: a 4-byte
// big-endian length prefix and a 4-byte CRC32 (IEEE) trailer.
const frameOverhead = 8

// stepHeaderLen is the fixed step-payload header: magic, rank, step, lo, hi,
// active.
const stepHeaderLen = 4 + 4 + 8 + 4 + 4 + 4

// helloLen is the fixed hello payload length.
const helloLen = 4 + 4 + 4 + 4 + 8 + 4 + 8 + 8 + 4 + 8 + 8 + 8

// sampleMetaLen is the per-sample metadata cost in a step payload: a float64
// loss term and a correctness flag byte.
const sampleMetaLen = 9

// StepFrameBytes returns the exact on-wire size of one step frame carrying
// `samples` batch rows with `active` exchanged values per row — the
// analytical figure the O(k) wire test asserts against the measured byte
// counters. Once DropBack freezes, active is the tracked budget k, so the
// frame scales with k, not the dense parameter count.
func StepFrameBytes(samples, active int) int {
	return frameOverhead + stepHeaderLen + samples*sampleMetaLen + samples*active*4
}

// AppendFrame appends one framed payload (length prefix + payload + CRC32
// trailer) to dst and returns the extended slice.
func AppendFrame(dst, payload []byte) []byte {
	var w [4]byte
	binary.BigEndian.PutUint32(w[:], uint32(len(payload)))
	dst = append(dst, w[:]...)
	dst = append(dst, payload...)
	binary.BigEndian.PutUint32(w[:], crc32.ChecksumIEEE(payload))
	return append(dst, w[:]...)
}

// WriteFrame frames the payload and writes it in a single Write call, so a
// short-write transport surfaces an error instead of a torn frame.
func WriteFrame(w io.Writer, payload []byte) error {
	frame := AppendFrame(make([]byte, 0, len(payload)+frameOverhead), payload)
	n, err := w.Write(frame)
	if err != nil {
		return err
	}
	if n != len(frame) {
		return fmt.Errorf("%w: short write (%d of %d bytes)", ErrTruncatedFrame, n, len(frame))
	}
	return nil
}

// ReadFrame reads one frame from r, reusing *buf across calls, and returns
// the verified payload (valid until the next call). maxPayload bounds the
// length prefix before any allocation, so a corrupt or hostile prefix cannot
// balloon memory. A clean EOF before any byte is returned as io.EOF; any end
// of stream inside a frame is ErrTruncatedFrame.
func ReadFrame(r io.Reader, buf *[]byte, maxPayload int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: stream ended inside the length prefix", ErrTruncatedFrame)
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if int64(n) > int64(maxPayload) {
		return nil, fmt.Errorf("%w: prefix claims %d bytes, limit %d", ErrFrameTooLarge, n, maxPayload)
	}
	need := int(n) + 4
	if cap(*buf) < need {
		*buf = make([]byte, need)
	}
	b := (*buf)[:need]
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, fmt.Errorf("%w: stream ended inside a %d-byte frame: %w", ErrTruncatedFrame, n, err)
	}
	payload := b[:n]
	if got, want := crc32.ChecksumIEEE(payload), binary.BigEndian.Uint32(b[n:]); got != want {
		return nil, fmt.Errorf("%w: computed %08x, trailer says %08x", ErrCRCMismatch, got, want)
	}
	return payload, nil
}

// PayloadMagic returns the payload's leading magic, or ErrBadMagic when the
// payload is too short or names no known kind.
func PayloadMagic(p []byte) (uint32, error) {
	if len(p) < 4 {
		return 0, fmt.Errorf("%w: %d-byte payload has no magic", ErrBadMagic, len(p))
	}
	m := binary.BigEndian.Uint32(p)
	switch m {
	case magicHello, magicStep, magicPartial, magicAbort:
		return m, nil
	}
	return 0, fmt.Errorf("%w: %08x", ErrBadMagic, m)
}

// Handshake is the field set every pair of peers must agree on before any
// gradients cross the wire: anything here that differed between nodes would
// silently break bit-identity, so a mismatch refuses the connection instead.
// Version, Rank, and World are filled by the cluster; the trainer supplies
// the run identity (seed, method, budget, freeze epoch, batch size, the
// parameter-space hash, and the step the run starts at — nonzero when
// resuming from a checkpoint, so every node must have loaded the same one).
type Handshake struct {
	Version     uint32
	Rank        uint32
	World       uint32
	Seed        uint64
	Method      uint32
	Budget      uint64
	FreezeAfter int64
	Batch       uint32
	ParamTotal  uint64
	ModelHash   uint64
	StartStep   uint64
}

// AppendHello appends the handshake's hello payload to dst.
func AppendHello(dst []byte, h Handshake) []byte {
	dst = appendU32(dst, magicHello)
	dst = appendU32(dst, h.Version)
	dst = appendU32(dst, h.Rank)
	dst = appendU32(dst, h.World)
	dst = appendU64(dst, h.Seed)
	dst = appendU32(dst, h.Method)
	dst = appendU64(dst, h.Budget)
	dst = appendU64(dst, uint64(h.FreezeAfter))
	dst = appendU32(dst, h.Batch)
	dst = appendU64(dst, h.ParamTotal)
	dst = appendU64(dst, h.ModelHash)
	dst = appendU64(dst, h.StartStep)
	return dst
}

// DecodeHello parses a hello payload.
func DecodeHello(p []byte) (Handshake, error) {
	var h Handshake
	if len(p) != helloLen {
		return h, fmt.Errorf("%w: hello payload is %d bytes, want %d", ErrBadPayload, len(p), helloLen)
	}
	if binary.BigEndian.Uint32(p) != magicHello {
		return h, fmt.Errorf("%w: not a hello payload", ErrBadMagic)
	}
	h.Version = binary.BigEndian.Uint32(p[4:])
	h.Rank = binary.BigEndian.Uint32(p[8:])
	h.World = binary.BigEndian.Uint32(p[12:])
	h.Seed = binary.BigEndian.Uint64(p[16:])
	h.Method = binary.BigEndian.Uint32(p[24:])
	h.Budget = binary.BigEndian.Uint64(p[28:])
	h.FreezeAfter = int64(binary.BigEndian.Uint64(p[36:]))
	h.Batch = binary.BigEndian.Uint32(p[44:])
	h.ParamTotal = binary.BigEndian.Uint64(p[48:])
	h.ModelHash = binary.BigEndian.Uint64(p[56:])
	h.StartStep = binary.BigEndian.Uint64(p[64:])
	return h, nil
}

// maxAbortReason bounds the abort reason so a corrupt frame cannot smuggle
// an arbitrarily large payload past the handshake-sized read limit.
const maxAbortReason = 512

// AppendAbort appends an abort payload (sender rank + human-readable reason)
// to dst. The reason is truncated to maxAbortReason bytes.
func AppendAbort(dst []byte, rank uint32, reason string) []byte {
	if len(reason) > maxAbortReason {
		reason = reason[:maxAbortReason]
	}
	dst = appendU32(dst, magicAbort)
	dst = appendU32(dst, rank)
	return append(dst, reason...)
}

// DecodeAbort parses an abort payload into the sender's rank and reason.
func DecodeAbort(p []byte) (rank uint32, reason string, err error) {
	if len(p) < 8 {
		return 0, "", fmt.Errorf("%w: abort payload is %d bytes, want >= 8", ErrBadPayload, len(p))
	}
	if binary.BigEndian.Uint32(p) != magicAbort {
		return 0, "", fmt.Errorf("%w: not an abort payload", ErrBadMagic)
	}
	r := p[8:]
	if len(r) > maxAbortReason {
		r = r[:maxAbortReason]
	}
	return binary.BigEndian.Uint32(p[4:]), string(r), nil
}

// StepHeader is the fixed header of a step payload: who sent it, which
// optimizer step it belongs to, the contiguous batch-row span [Lo, Hi) the
// sender computed, and how many gradient values each row carries (the
// tracked budget k: step frames carry the frozen phase, while the dense
// phase sends partial payloads down the rank chain).
type StepHeader struct {
	Rank   uint32
	Step   uint64
	Lo, Hi uint32
	Active uint32
}

// AppendStepHeader appends the step header to dst.
func AppendStepHeader(dst []byte, h StepHeader) []byte {
	dst = appendU32(dst, magicStep)
	dst = appendU32(dst, h.Rank)
	dst = appendU64(dst, h.Step)
	dst = appendU32(dst, h.Lo)
	dst = appendU32(dst, h.Hi)
	dst = appendU32(dst, h.Active)
	return dst
}

// DecodeStepHeader parses just the fixed header of a step payload.
func DecodeStepHeader(p []byte) (StepHeader, error) {
	var h StepHeader
	if len(p) < stepHeaderLen {
		return h, fmt.Errorf("%w: step payload is %d bytes, header needs %d", ErrBadPayload, len(p), stepHeaderLen)
	}
	if binary.BigEndian.Uint32(p) != magicStep {
		return h, fmt.Errorf("%w: not a step payload", ErrBadMagic)
	}
	h.Rank = binary.BigEndian.Uint32(p[4:])
	h.Step = binary.BigEndian.Uint64(p[8:])
	h.Lo = binary.BigEndian.Uint32(p[16:])
	h.Hi = binary.BigEndian.Uint32(p[20:])
	h.Active = binary.BigEndian.Uint32(p[24:])
	return h, nil
}

// AppendSample appends one sample's metadata (loss term + correct flag) to a
// step payload under construction.
func AppendSample(dst []byte, loss float64, correct uint8) []byte {
	dst = appendU64(dst, math.Float64bits(loss))
	return append(dst, correct)
}

// AppendSampleValues appends one row of gradient values. With idx nil the
// whole row goes on the wire (a partial payload's running sums); otherwise
// only row[i] for the ascending tracked indices in idx (the O(k) frozen-set
// exchange).
func AppendSampleValues(dst []byte, row []float32, idx []int32) []byte {
	if idx == nil {
		for _, v := range row {
			dst = appendU32(dst, math.Float32bits(v))
		}
		return dst
	}
	for _, i := range idx {
		dst = appendU32(dst, math.Float32bits(row[i]))
	}
	return dst
}

// StepPayload is a validated view over a received step payload: the header
// plus bounds-checked accessors into the sample metadata and value sections.
type StepPayload struct {
	Hdr  StepHeader
	body []byte // payload minus the fixed header
}

// ParseStep validates a step payload's structure — header magic, a sane row
// span, and a body length that exactly matches samples × (metadata + active
// values) — and returns the accessor view. It does NOT check step/rank
// freshness; the cluster does that against its own counters.
func ParseStep(p []byte) (StepPayload, error) {
	var s StepPayload
	h, err := DecodeStepHeader(p)
	if err != nil {
		return s, err
	}
	if h.Hi < h.Lo {
		return s, fmt.Errorf("%w: step row span [%d, %d) is inverted", ErrBadPayload, h.Lo, h.Hi)
	}
	samples := int64(h.Hi) - int64(h.Lo)
	want := samples*sampleMetaLen + samples*int64(h.Active)*4
	if got := int64(len(p) - stepHeaderLen); got != want {
		return s, fmt.Errorf("%w: step body is %d bytes, %d samples × %d active values need %d",
			ErrBadPayload, got, samples, h.Active, want)
	}
	s.Hdr = h
	s.body = p[stepHeaderLen:]
	return s, nil
}

// Samples returns the number of batch rows the payload carries.
func (s *StepPayload) Samples() int { return int(s.Hdr.Hi - s.Hdr.Lo) }

// Sample returns the i-th carried row's loss term and correct flag.
func (s *StepPayload) Sample(i int) (loss float64, correct uint8) {
	off := i * sampleMetaLen
	return math.Float64frombits(binary.BigEndian.Uint64(s.body[off:])), s.body[off+8]
}

// CopyValues scatters the i-th carried row's gradient values into dst. With
// idx nil the row is dense (Active values copied in order, which must equal
// len(dst)); otherwise value j lands at dst[idx[j]] — the receiver supplies
// the same ascending tracked-index list the sender gathered with, which both
// sides derive from identical DropBack state rather than the wire.
func (s *StepPayload) CopyValues(i int, dst []float32, idx []int32) {
	off := s.Samples()*sampleMetaLen + i*int(s.Hdr.Active)*4
	if idx == nil {
		for j := 0; j < int(s.Hdr.Active); j++ {
			dst[j] = math.Float32frombits(binary.BigEndian.Uint32(s.body[off+j*4:]))
		}
		return
	}
	for j, g := range idx {
		dst[g] = math.Float32frombits(binary.BigEndian.Uint32(s.body[off+j*4:]))
	}
}

// partialHeaderLen is the fixed partial-payload header: magic, rank, step,
// rows, active, loss, correct.
const partialHeaderLen = 4 + 4 + 8 + 4 + 4 + 8 + 4

// PartialFrameBytes returns the exact on-wire size of one partial frame
// carrying `active` running gradient sums: what each hop of the dense rank
// chain sends, independent of how many batch rows the sums cover.
func PartialFrameBytes(active int) int {
	return frameOverhead + partialHeaderLen + active*4
}

// PartialHeader is the fixed header of a partial payload: who sent it, which
// optimizer step it belongs to, and the running sums it carries — gradient
// sums over batch rows [0, Rows) (Active values follow the header), the
// float64 sum of those rows' loss terms and their count of correct
// predictions, each accumulated in ascending sample order from zero.
type PartialHeader struct {
	Rank    uint32
	Step    uint64
	Rows    uint32
	Active  uint32
	Loss    float64
	Correct uint32
}

// AppendPartialHeader appends the partial header to dst; the Active values
// follow it (AppendSampleValues with a nil index list).
func AppendPartialHeader(dst []byte, h PartialHeader) []byte {
	dst = appendU32(dst, magicPartial)
	dst = appendU32(dst, h.Rank)
	dst = appendU64(dst, h.Step)
	dst = appendU32(dst, h.Rows)
	dst = appendU32(dst, h.Active)
	dst = appendU64(dst, math.Float64bits(h.Loss))
	return appendU32(dst, h.Correct)
}

// decodePartialHeader parses just the fixed header of a partial payload.
func decodePartialHeader(p []byte) (PartialHeader, error) {
	var h PartialHeader
	if len(p) < partialHeaderLen {
		return h, fmt.Errorf("%w: partial payload is %d bytes, header needs %d", ErrBadPayload, len(p), partialHeaderLen)
	}
	if binary.BigEndian.Uint32(p) != magicPartial {
		return h, fmt.Errorf("%w: not a partial payload", ErrBadMagic)
	}
	h.Rank = binary.BigEndian.Uint32(p[4:])
	h.Step = binary.BigEndian.Uint64(p[8:])
	h.Rows = binary.BigEndian.Uint32(p[16:])
	h.Active = binary.BigEndian.Uint32(p[20:])
	h.Loss = math.Float64frombits(binary.BigEndian.Uint64(p[24:]))
	h.Correct = binary.BigEndian.Uint32(p[32:])
	return h, nil
}

// PartialPayload is a validated view over a received partial payload.
type PartialPayload struct {
	Hdr    PartialHeader
	values []byte // Active big-endian float32 sums
}

// ParsePartial validates a partial payload's structure — header magic, a
// correct count no larger than the rows covered, and a body of exactly
// Active values — and returns the accessor view. Like ParseStep it leaves
// step/rank freshness to the cluster and the row count to the caller.
func ParsePartial(p []byte) (PartialPayload, error) {
	var s PartialPayload
	h, err := decodePartialHeader(p)
	if err != nil {
		return s, err
	}
	if h.Correct > h.Rows {
		return s, fmt.Errorf("%w: partial sums count %d correct of %d rows", ErrBadPayload, h.Correct, h.Rows)
	}
	if got, want := int64(len(p)-partialHeaderLen), int64(h.Active)*4; got != want {
		return s, fmt.Errorf("%w: partial body is %d bytes, %d values need %d", ErrBadPayload, got, h.Active, want)
	}
	s.Hdr = h
	s.values = p[partialHeaderLen:]
	return s, nil
}

// CopyValues copies sums [from, from+len(dst)) into dst; the range must lie
// within the Active carried values.
func (s *PartialPayload) CopyValues(dst []float32, from int) {
	v := s.values[from*4 : (from+len(dst))*4]
	for j := range dst {
		dst[j] = math.Float32frombits(binary.BigEndian.Uint32(v[j*4:]))
	}
}

func appendU32(dst []byte, v uint32) []byte {
	var w [4]byte
	binary.BigEndian.PutUint32(w[:], v)
	return append(dst, w[:]...)
}

func appendU64(dst []byte, v uint64) []byte {
	var w [8]byte
	binary.BigEndian.PutUint64(w[:], v)
	return append(dst, w[:]...)
}
