// Package sparse implements the deployment artifact a DropBack-trained
// model compresses to: the k tracked weight values (with their flat
// indices), the model seed, and batch-normalization running statistics.
// Nothing else is stored — every untracked weight is regenerated from
// (seed, tensor id, element index) when the artifact is applied to a
// freshly constructed model, exactly the storage contract that gives the
// paper its "weight compression" column.
//
// Compression is derived, not declared: a weight is stored if and only if
// its current value differs from its regenerated initialization value, so
// the artifact works for any training method (for baseline-trained models
// it degenerates to roughly dense storage, which is the point of the
// comparison).
//
// Compile turns an artifact into a serving Plan that computes straight off
// the tracked weights, and NewExecutor replicates the plan's model once
// per concurrent worker (plan.go).
package sparse

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"

	"dropback/internal/fsatomic"
	"dropback/internal/nn"
)

// Magic identifies a sparse artifact stream ("DBSP").
const Magic uint32 = 0x44425350

// Version is the format version. Version 2 appends a CRC32 (Castagnoli)
// trailer covering every preceding byte, so bit rot anywhere in the stream
// is detected instead of silently corrupting weights. The trailer-less
// version 1 is no longer read.
const Version uint32 = 2

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Entry is one stored weight: the global flat index in the model's
// parameter address space and its trained value.
type Entry struct {
	Index uint32
	Value float32
}

// Artifact is the compressed model.
type Artifact struct {
	// ModelSeed must match the seed the receiving model is built with —
	// it determines every regenerated weight.
	ModelSeed uint64
	// TotalParams is the full parameter count, used for validation and
	// compression accounting.
	TotalParams int
	// Entries hold the deviating (tracked) weights in ascending index
	// order.
	Entries []Entry
	// BNs hold running statistics per batch-norm layer (inference needs
	// them; they are activation statistics, not weights, and are tiny).
	BNs []nn.BNStats
}

// Compress builds the artifact from a trained model: every weight whose
// value differs from its regenerated initialization is stored; everything
// else is represented implicitly by the seed.
func Compress(m *nn.Model) *Artifact {
	a := &Artifact{ModelSeed: m.Seed, TotalParams: m.Set.Total()}
	for i, p := range m.Set.Params() {
		base := m.Set.Offset(i)
		for e, v := range p.Value.Data {
			if v != p.Init.Regenerate(e) {
				a.Entries = append(a.Entries, Entry{Index: uint32(base + e), Value: v})
			}
		}
	}
	a.BNs = nn.CaptureBNStats(m.Net)
	return a
}

// Apply writes the artifact into a freshly constructed model. The model
// must be built by the same constructor with the same seed: Apply verifies
// the seed, the parameter count, that entry indices are in range and
// strictly ascending, and the batch norm channel counts, then restores the
// batch norm statistics and writes each parameter into whichever storage
// it has. A CSR weight holds exactly the artifact's entries for it (every
// other element regenerates as the layers compute); a dense Value is
// regenerated to its initialization and overlaid with the entries. A
// rejected artifact leaves the model unchanged.
func (a *Artifact) Apply(m *nn.Model) error {
	if m.Seed != a.ModelSeed {
		return fmt.Errorf("sparse: model seed %d does not match artifact seed %d", m.Seed, a.ModelSeed)
	}
	if m.Set.Total() != a.TotalParams {
		return fmt.Errorf("sparse: model has %d parameters, artifact describes %d", m.Set.Total(), a.TotalParams)
	}
	for i, e := range a.Entries {
		if int(e.Index) >= a.TotalParams {
			return fmt.Errorf("sparse: entry index %d out of range", e.Index)
		}
		if i > 0 && e.Index <= a.Entries[i-1].Index {
			return fmt.Errorf("sparse: entry indices not strictly ascending at entry %d", i)
		}
	}
	if err := nn.ApplyBNStats(m.Net, a.BNs); err != nil {
		return fmt.Errorf("sparse: %w", err)
	}
	ents := a.Entries
	for i, p := range m.Set.Params() {
		base := m.Set.Offset(i)
		n := sort.Search(len(ents), func(j int) bool { return int(ents[j].Index) >= base+p.Len() })
		write(p, ents[:n], base)
		ents = ents[n:]
	}
	return nil
}

// write stores parameter p's entries, whose global indices start at base,
// into p's storage.
func write(p *nn.Param, ents []Entry, base int) {
	if p.CSR != nil {
		idx := make([]int32, len(ents))
		val := make([]float32, len(ents))
		for t, e := range ents {
			idx[t], val[t] = int32(int(e.Index)-base), e.Value
		}
		p.CSR.Idx, p.CSR.Val = idx, val
		p.CSR.RebuildRowPtr()
	}
	if p.Value != nil {
		p.Init.Fill(p.Value.Data)
		for _, e := range ents {
			p.Value.Data[int(e.Index)-base] = e.Value
		}
	}
}

// StoredWeights returns the number of explicitly stored weights.
func (a *Artifact) StoredWeights() int { return len(a.Entries) }

// CompressionRatio returns total / stored weights (dense-equivalent
// compression; +Inf-free: an empty artifact reports the total).
func (a *Artifact) CompressionRatio() float64 {
	if len(a.Entries) == 0 {
		return float64(a.TotalParams)
	}
	return float64(a.TotalParams) / float64(len(a.Entries))
}

// StorageBytes returns the artifact's weight-storage footprint: 8 bytes per
// entry (index + value) plus BN statistics and the 8-byte seed.
func (a *Artifact) StorageBytes() int {
	n := 8 + 8*len(a.Entries)
	for _, b := range a.BNs {
		n += 8 * len(b.RunningMean)
	}
	return n
}

// DenseStorageBytes returns the storage a dense copy of the same model
// needs (4 bytes per weight plus the same BN statistics).
func (a *Artifact) DenseStorageBytes() int {
	n := 4 * a.TotalParams
	for _, b := range a.BNs {
		n += 8 * len(b.RunningMean)
	}
	return n
}

// Write serializes the artifact: header, seed, entries and BN statistics,
// followed by a CRC32 trailer over every preceding byte.
func (a *Artifact) Write(w io.Writer) error {
	h := crc32.New(crcTable)
	bw := bufio.NewWriter(io.MultiWriter(w, h))
	if err := binary.Write(bw, binary.LittleEndian, Magic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, Version); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, a.ModelSeed); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(a.TotalParams)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(a.Entries))); err != nil {
		return err
	}
	for _, e := range a.Entries {
		if err := binary.Write(bw, binary.LittleEndian, e.Index); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, math.Float32bits(e.Value)); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(a.BNs))); err != nil {
		return err
	}
	for _, b := range a.BNs {
		if len(b.Name) > 1<<12 {
			return fmt.Errorf("sparse: BN name too long")
		}
		if err := binary.Write(bw, binary.LittleEndian, uint16(len(b.Name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(b.Name); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(b.RunningMean))); err != nil {
			return err
		}
		for _, v := range b.RunningMean {
			if err := binary.Write(bw, binary.LittleEndian, math.Float32bits(v)); err != nil {
				return err
			}
		}
		for _, v := range b.RunningVar {
			if err := binary.Write(bw, binary.LittleEndian, math.Float32bits(v)); err != nil {
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// Trailer: CRC of everything from the magic through the last payload
	// byte, written raw (the checksum does not checksum itself).
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], h.Sum32())
	_, err := w.Write(trailer[:])
	return err
}

// Read parses a checksummed artifact stream.
func Read(r io.Reader) (*Artifact, error) {
	br := bufio.NewReader(r)
	var head [8]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, fmt.Errorf("sparse: reading header: %w", err)
	}
	if magic := binary.LittleEndian.Uint32(head[:4]); magic != Magic {
		return nil, fmt.Errorf("sparse: bad magic %#x", magic)
	}
	if version := binary.LittleEndian.Uint32(head[4:]); version != Version {
		return nil, fmt.Errorf("sparse: unsupported version %d", version)
	}
	h := crc32.New(crcTable)
	h.Write(head[:])
	a, err := readBody(io.TeeReader(br, h))
	if err != nil {
		return nil, err
	}
	var trailer [4]byte
	if _, err := io.ReadFull(br, trailer[:]); err != nil {
		return nil, fmt.Errorf("sparse: reading checksum trailer: %w", err)
	}
	if stored, computed := binary.LittleEndian.Uint32(trailer[:]), h.Sum32(); stored != computed {
		return nil, fmt.Errorf("sparse: checksum mismatch (stored %#x, computed %#x)", stored, computed)
	}
	return a, nil
}

// readBody parses the artifact payload after the magic/version header.
func readBody(br io.Reader) (*Artifact, error) {
	a := &Artifact{}
	if err := binary.Read(br, binary.LittleEndian, &a.ModelSeed); err != nil {
		return nil, fmt.Errorf("sparse: reading seed: %w", err)
	}
	var total uint64
	if err := binary.Read(br, binary.LittleEndian, &total); err != nil {
		return nil, fmt.Errorf("sparse: reading total: %w", err)
	}
	if total > 1<<33 {
		return nil, fmt.Errorf("sparse: implausible parameter count %d", total)
	}
	a.TotalParams = int(total)
	var nEntries uint32
	if err := binary.Read(br, binary.LittleEndian, &nEntries); err != nil {
		return nil, fmt.Errorf("sparse: reading entry count: %w", err)
	}
	if uint64(nEntries) > total {
		return nil, fmt.Errorf("sparse: %d entries exceed %d parameters", nEntries, total)
	}
	buf, err := readN(br, 8*int(nEntries))
	if err != nil {
		return nil, fmt.Errorf("sparse: reading entries: %w", err)
	}
	a.Entries = make([]Entry, nEntries)
	for i := range a.Entries {
		a.Entries[i].Index = binary.LittleEndian.Uint32(buf[8*i:])
		a.Entries[i].Value = math.Float32frombits(binary.LittleEndian.Uint32(buf[8*i+4:]))
	}
	var nBN uint32
	if err := binary.Read(br, binary.LittleEndian, &nBN); err != nil {
		return nil, fmt.Errorf("sparse: reading BN count: %w", err)
	}
	if nBN > 1<<20 {
		return nil, fmt.Errorf("sparse: implausible BN count %d", nBN)
	}
	for i := uint32(0); i < nBN; i++ {
		var nameLen uint16
		if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
			return nil, fmt.Errorf("sparse: reading BN name length: %w", err)
		}
		if int(nameLen) > 1<<12 {
			return nil, fmt.Errorf("sparse: BN name too long")
		}
		nameBuf := make([]byte, nameLen)
		if _, err := io.ReadFull(br, nameBuf); err != nil {
			return nil, fmt.Errorf("sparse: reading BN name: %w", err)
		}
		var c uint32
		if err := binary.Read(br, binary.LittleEndian, &c); err != nil {
			return nil, fmt.Errorf("sparse: reading BN channels: %w", err)
		}
		if c == 0 || c > 1<<24 {
			return nil, fmt.Errorf("sparse: implausible BN channels %d", c)
		}
		statBuf, err := readN(br, 8*int(c))
		if err != nil {
			return nil, fmt.Errorf("sparse: reading BN stats: %w", err)
		}
		b := nn.BNStats{
			Name:        string(nameBuf),
			RunningMean: make([]float32, c),
			RunningVar:  make([]float32, c),
		}
		for j := uint32(0); j < c; j++ {
			b.RunningMean[j] = math.Float32frombits(binary.LittleEndian.Uint32(statBuf[4*j:]))
			b.RunningVar[j] = math.Float32frombits(binary.LittleEndian.Uint32(statBuf[4*(c+j):]))
		}
		a.BNs = append(a.BNs, b)
	}
	return a, nil
}

// readN reads exactly n bytes. The buffer grows as bytes arrive, so a
// corrupt count in a short stream fails with io.ErrUnexpectedEOF instead of
// first allocating the size it claims.
func readN(r io.Reader, n int) ([]byte, error) {
	buf, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err == nil && len(buf) < n {
		err = io.ErrUnexpectedEOF
	}
	return buf, err
}

// Save writes the artifact to a file atomically: the bytes land in a
// temporary file that is fsynced and renamed over path, so a crash mid-save
// leaves any previous artifact intact.
func Save(path string, a *Artifact) error {
	return fsatomic.WriteFile(path, nil, a.Write)
}

// Load reads an artifact file.
func Load(path string) (*Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
