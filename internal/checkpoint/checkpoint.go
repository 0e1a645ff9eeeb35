// Package checkpoint serializes trained models: a dense format holding
// every parameter value plus batch-normalization running statistics, inside
// a versioned binary envelope. The sparse deployment format (tracked
// weights + regeneration seed only) lives in internal/sparse; this package
// is the training-time save/resume path.
//
// Version 2 of the envelope is built for crash safety: the stream is a
// sequence of self-describing sections (parameters, batch-norm statistics,
// and optionally the full resumable TrainState), each protected by a CRC32
// so torn or bit-flipped files are detected rather than silently loaded.
// Files are written via write-to-temp + fsync + atomic rename (see Save),
// so a crash at any byte leaves the previous checkpoint intact. Version 1
// files remain readable.
package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"dropback/internal/fsatomic"
	"dropback/internal/nn"
)

const (
	// Magic identifies a dense checkpoint stream ("DBCK").
	Magic uint32 = 0x4442434B
	// Version is the format version (sectioned, CRC-protected); the
	// unsectioned version 1 is no longer read.
	Version uint32 = 2
	// maxName bounds parameter-name lengths on read.
	maxName = 1 << 12
	// maxTensor bounds a single tensor's element count on read (guards
	// against corrupt headers allocating unbounded memory).
	maxTensor = 1 << 28
	// maxSection bounds one section's payload size on read.
	maxSection = 1 << 31
)

// Section identifiers of the version-2 envelope.
const (
	secParams uint32 = 0x50524D53 // "PRMS": parameter tensors
	secBN     uint32 = 0x424E5354 // "BNST": batch-norm running statistics
	secTrain  uint32 = 0x54525354 // "TRST": resumable training state
	secEnd    uint32 = 0x44454E44 // "DEND": end-of-stream sentinel
)

// crcTable is the polynomial every section checksum uses (Castagnoli, the
// same polynomial filesystems and iSCSI use, with hardware support on
// modern CPUs).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checkpoint is the in-memory form of a dense checkpoint.
type Checkpoint struct {
	Seed   uint64
	Params []ParamBlob
	BNs    []nn.BNStats
	// Train carries the resumable training state, when the checkpoint was
	// written mid-run (nil for plain model exports and all version-1 files).
	Train *TrainState
}

// ParamBlob is one serialized parameter tensor.
type ParamBlob struct {
	Name  string
	Shape []int
	Data  []float32
}

// Capture snapshots a model into a Checkpoint.
func Capture(m *nn.Model) *Checkpoint {
	ck := &Checkpoint{Seed: m.Seed}
	for _, p := range m.Set.Params() {
		shape := make([]int, len(p.Value.Shape))
		copy(shape, p.Value.Shape)
		data := make([]float32, p.Len())
		copy(data, p.Value.Data)
		ck.Params = append(ck.Params, ParamBlob{Name: p.Name, Shape: shape, Data: data})
	}
	ck.BNs = nn.CaptureBNStats(m.Net)
	return ck
}

// Apply writes a Checkpoint's values back into a freshly constructed model
// of the same architecture. Every parameter in the checkpoint must exist in
// the model with a matching element count; batch norms are matched by name.
// Validation happens before any write, so a mismatched checkpoint leaves
// the model untouched.
func (ck *Checkpoint) Apply(m *nn.Model) error {
	for _, blob := range ck.Params {
		p := m.Set.ByName(blob.Name)
		if p == nil {
			return fmt.Errorf("checkpoint: model has no parameter %q", blob.Name)
		}
		if p.Len() != len(blob.Data) {
			return fmt.Errorf("checkpoint: parameter %q has %d elements, checkpoint holds %d", blob.Name, p.Len(), len(blob.Data))
		}
	}
	// The parameters are checked, so once the statistics apply (or are
	// rejected, unwritten) nothing below can fail.
	if err := nn.ApplyBNStats(m.Net, ck.BNs); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	for _, blob := range ck.Params {
		copy(m.Set.ByName(blob.Name).Value.Data, blob.Data)
	}
	return nil
}

// Write serializes the checkpoint in the current (version 2) envelope: the
// header, then one CRC-protected section per populated part.
func (ck *Checkpoint) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, ck.Seed); err != nil {
		return err
	}
	var payload bytes.Buffer
	if err := writeParamsPayload(&payload, ck.Params); err != nil {
		return err
	}
	if err := writeSection(bw, secParams, payload.Bytes()); err != nil {
		return err
	}
	payload.Reset()
	if err := writeBNPayload(&payload, ck.BNs); err != nil {
		return err
	}
	if err := writeSection(bw, secBN, payload.Bytes()); err != nil {
		return err
	}
	if ck.Train != nil {
		payload.Reset()
		if err := writeTrainPayload(&payload, ck.Train); err != nil {
			return err
		}
		if err := writeSection(bw, secTrain, payload.Bytes()); err != nil {
			return err
		}
	}
	// The empty end sentinel makes every truncation detectable, even one
	// that happens to land exactly on a section boundary.
	if err := writeSection(bw, secEnd, nil); err != nil {
		return err
	}
	return bw.Flush()
}

// writeSection emits one envelope section: id, payload length, payload,
// CRC32 of the payload.
func writeSection(w io.Writer, id uint32, payload []byte) error {
	if err := binary.Write(w, binary.LittleEndian, id); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(len(payload))); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, crc32.Checksum(payload, crcTable))
}

// Read parses a checkpoint stream.
func Read(r io.Reader) (*Checkpoint, error) {
	br := bufio.NewReader(r)
	seed, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	ck := &Checkpoint{Seed: seed}
	seen := map[uint32]bool{}
	ended := false
	for !ended {
		var id uint32
		if err := binary.Read(br, binary.LittleEndian, &id); err != nil {
			if err == io.EOF {
				return nil, fmt.Errorf("checkpoint: truncated stream (missing end sentinel)")
			}
			return nil, fmt.Errorf("checkpoint: reading section id: %w", err)
		}
		var n uint64
		if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
			return nil, fmt.Errorf("checkpoint: reading section length: %w", err)
		}
		if n > maxSection {
			return nil, fmt.Errorf("checkpoint: implausible section length %d", n)
		}
		if seen[id] {
			return nil, fmt.Errorf("checkpoint: duplicate section %#x", id)
		}
		seen[id] = true
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			return nil, fmt.Errorf("checkpoint: reading section %#x payload: %w", id, err)
		}
		var want uint32
		if err := binary.Read(br, binary.LittleEndian, &want); err != nil {
			return nil, fmt.Errorf("checkpoint: reading section %#x checksum: %w", id, err)
		}
		if got := crc32.Checksum(payload, crcTable); got != want {
			return nil, fmt.Errorf("checkpoint: section %#x checksum mismatch (got %#x, want %#x)", id, got, want)
		}
		pr := bytes.NewReader(payload)
		switch id {
		case secParams:
			err = readParamsPayload(pr, ck)
		case secBN:
			err = readBNPayload(pr, ck)
		case secTrain:
			ck.Train, err = readTrainPayload(pr)
		case secEnd:
			if len(payload) != 0 {
				return nil, fmt.Errorf("checkpoint: non-empty end sentinel")
			}
			ended = true
			continue
		default:
			// Unknown section from a future writer: checksum verified,
			// content skipped.
			continue
		}
		if err != nil {
			return nil, err
		}
		if pr.Len() != 0 {
			return nil, fmt.Errorf("checkpoint: section %#x has %d trailing bytes", id, pr.Len())
		}
	}
	if !seen[secParams] || !seen[secBN] {
		return nil, fmt.Errorf("checkpoint: missing required section")
	}
	return ck, nil
}

// writeParamsPayload encodes the parameter tensors.
func writeParamsPayload(w io.Writer, params []ParamBlob) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(params))); err != nil {
		return err
	}
	for _, p := range params {
		if err := writeString(w, p.Name); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint8(len(p.Shape))); err != nil {
			return err
		}
		for _, d := range p.Shape {
			if err := binary.Write(w, binary.LittleEndian, int32(d)); err != nil {
				return err
			}
		}
		if err := writeFloats(w, p.Data); err != nil {
			return err
		}
	}
	return nil
}

// readParamsPayload decodes the parameter tensors into ck.
func readParamsPayload(r io.Reader, ck *Checkpoint) error {
	var nParams uint32
	if err := binary.Read(r, binary.LittleEndian, &nParams); err != nil {
		return fmt.Errorf("checkpoint: reading param count: %w", err)
	}
	if nParams > 1<<20 {
		return fmt.Errorf("checkpoint: implausible param count %d", nParams)
	}
	for i := uint32(0); i < nParams; i++ {
		name, err := readString(r)
		if err != nil {
			return err
		}
		var rank uint8
		if err := binary.Read(r, binary.LittleEndian, &rank); err != nil {
			return fmt.Errorf("checkpoint: reading rank: %w", err)
		}
		shape := make([]int, rank)
		total := 1
		for j := range shape {
			var d int32
			if err := binary.Read(r, binary.LittleEndian, &d); err != nil {
				return fmt.Errorf("checkpoint: reading shape: %w", err)
			}
			if d <= 0 {
				return fmt.Errorf("checkpoint: non-positive dimension %d in %q", d, name)
			}
			shape[j] = int(d)
			total *= int(d)
			if total > maxTensor {
				return fmt.Errorf("checkpoint: tensor %q too large", name)
			}
		}
		if total > maxTensor {
			return fmt.Errorf("checkpoint: tensor %q too large (%d elements)", name, total)
		}
		data, err := readFloats(r, total)
		if err != nil {
			return err
		}
		ck.Params = append(ck.Params, ParamBlob{Name: name, Shape: shape, Data: data})
	}
	return nil
}

// writeBNPayload encodes the batch-norm statistics.
func writeBNPayload(w io.Writer, bns []nn.BNStats) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(bns))); err != nil {
		return err
	}
	for _, b := range bns {
		if err := writeString(w, b.Name); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, int32(len(b.RunningMean))); err != nil {
			return err
		}
		if err := writeFloats(w, b.RunningMean); err != nil {
			return err
		}
		if err := writeFloats(w, b.RunningVar); err != nil {
			return err
		}
	}
	return nil
}

// readBNPayload decodes the batch-norm statistics into ck.
func readBNPayload(r io.Reader, ck *Checkpoint) error {
	var nBN uint32
	if err := binary.Read(r, binary.LittleEndian, &nBN); err != nil {
		return fmt.Errorf("checkpoint: reading BN count: %w", err)
	}
	if nBN > 1<<20 {
		return fmt.Errorf("checkpoint: implausible BN count %d", nBN)
	}
	for i := uint32(0); i < nBN; i++ {
		name, err := readString(r)
		if err != nil {
			return err
		}
		var c int32
		if err := binary.Read(r, binary.LittleEndian, &c); err != nil {
			return fmt.Errorf("checkpoint: reading BN channels: %w", err)
		}
		if c <= 0 || c > maxTensor {
			return fmt.Errorf("checkpoint: implausible BN channel count %d", c)
		}
		mean, err := readFloats(r, int(c))
		if err != nil {
			return err
		}
		variance, err := readFloats(r, int(c))
		if err != nil {
			return err
		}
		ck.BNs = append(ck.BNs, nn.BNStats{Name: name, RunningMean: mean, RunningVar: variance})
	}
	return nil
}

// Save atomically writes a model checkpoint (no training state) to a file:
// the bytes land in path+".tmp" first, are fsynced, and are renamed over
// path only once complete, so a crash mid-save leaves any previous file at
// path intact.
func Save(path string, m *nn.Model) error {
	return SaveTrain(path, m, nil)
}

// SaveTrain atomically writes a model checkpoint together with the
// resumable training state (ts may be nil for a plain model export).
func SaveTrain(path string, m *nn.Model, ts *TrainState) error {
	ck := Capture(m)
	ck.Train = ts
	return fsatomic.WriteFile(path, nil, ck.Write)
}

// Load reads a checkpoint file and applies it to the model, ignoring any
// training state it carries.
func Load(path string, m *nn.Model) error {
	_, err := LoadTrain(path, m)
	return err
}

// LoadTrain reads a checkpoint file, applies the weights and batch-norm
// statistics to the model, and returns the resumable training state (nil if
// the file carries none, as all version-1 files do).
func LoadTrain(path string, m *nn.Model) (*TrainState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ck, err := Read(f)
	if err != nil {
		return nil, err
	}
	if err := ck.Apply(m); err != nil {
		return nil, err
	}
	return ck.Train, nil
}

// --- shared low-level encoding helpers (also used by internal/sparse) ----

func writeHeader(w io.Writer, seed uint64) error {
	if err := binary.Write(w, binary.LittleEndian, Magic); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, Version); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, seed)
}

func readHeader(r io.Reader) (seed uint64, err error) {
	var magic, version uint32
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return 0, fmt.Errorf("checkpoint: reading magic: %w", err)
	}
	if magic != Magic {
		return 0, fmt.Errorf("checkpoint: bad magic %#x", magic)
	}
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil {
		return 0, fmt.Errorf("checkpoint: reading version: %w", err)
	}
	if version != Version {
		return 0, fmt.Errorf("checkpoint: unsupported version %d", version)
	}
	if err := binary.Read(r, binary.LittleEndian, &seed); err != nil {
		return 0, fmt.Errorf("checkpoint: reading seed: %w", err)
	}
	return seed, nil
}

func writeString(w io.Writer, s string) error {
	if len(s) > maxName {
		return fmt.Errorf("checkpoint: name too long (%d bytes)", len(s))
	}
	if err := binary.Write(w, binary.LittleEndian, uint16(len(s))); err != nil {
		return err
	}
	_, err := w.Write([]byte(s))
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", fmt.Errorf("checkpoint: reading name length: %w", err)
	}
	if int(n) > maxName {
		return "", fmt.Errorf("checkpoint: name too long (%d bytes)", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", fmt.Errorf("checkpoint: reading name: %w", err)
	}
	return string(buf), nil
}

func writeFloats(w io.Writer, data []float32) error {
	buf := make([]byte, 4*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	_, err := w.Write(buf)
	return err
}

func readFloats(r io.Reader, n int) ([]float32, error) {
	buf := make([]byte, 4*n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("checkpoint: reading %d floats: %w", n, err)
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return out, nil
}
