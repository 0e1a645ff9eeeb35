package sparse_test

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dropback/internal/sparse"

	"dropback"
	"dropback/internal/core"
	"dropback/internal/models"
	"dropback/internal/nn"
	"dropback/internal/tensor"
	"dropback/internal/xorshift"
)

// trainDropBack trains a tiny model under a DropBack budget and returns it.
func trainDropBack(t *testing.T, budget int) (*dropback.Model, *dropback.Dataset) {
	t.Helper()
	ds := dropback.MNISTLike(300, 11).Flatten()
	train, val := ds.Split(240)
	m := dropback.MNIST100100(11)
	dropback.Train(m, train, val, dropback.TrainConfig{
		Method: dropback.MethodDropBack, Budget: budget, FreezeAfterEpoch: 1,
		Epochs: 3, BatchSize: 32, Seed: 11,
	})
	return m, val
}

func TestCompressBoundedByBudget(t *testing.T) {
	const budget = 5000
	m, _ := trainDropBack(t, budget)
	a := sparse.Compress(m)
	if a.StoredWeights() > budget {
		t.Fatalf("artifact stores %d weights, budget was %d", a.StoredWeights(), budget)
	}
	if a.StoredWeights() == 0 {
		t.Fatal("artifact stored nothing — training had no effect?")
	}
	if a.CompressionRatio() < float64(m.Set.Total())/float64(budget) {
		t.Fatalf("compression %.2f below budget-implied %.2f", a.CompressionRatio(), float64(m.Set.Total())/float64(budget))
	}
}

func TestApplyReproducesInferenceExactly(t *testing.T) {
	// The end-to-end regeneration contract: a fresh model plus the sparse
	// artifact must produce bit-identical logits to the trained model.
	m, val := trainDropBack(t, 5000)
	a := sparse.Compress(m)
	fresh := dropback.MNIST100100(11)
	if err := a.Apply(fresh); err != nil {
		t.Fatal(err)
	}
	x, _ := val.Batch(0, 16)
	y1 := m.Net.Forward(x, false)
	y2 := fresh.Net.Forward(x, false)
	for i := range y1.Data {
		if y1.Data[i] != y2.Data[i] {
			t.Fatalf("logit %d differs: %v vs %v", i, y1.Data[i], y2.Data[i])
		}
	}
}

func TestApplyRestoresOnDirtyModel(t *testing.T) {
	m, _ := trainDropBack(t, 3000)
	a := sparse.Compress(m)
	dirty := dropback.MNIST100100(11)
	for g := 0; g < dirty.Set.Total(); g += 3 {
		dirty.Set.Set(g, -99)
	}
	if err := a.Apply(dirty); err != nil {
		t.Fatal(err)
	}
	want := m.Set.Snapshot()
	got := dirty.Set.Snapshot()
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("weight %d differs after Apply on dirty model", i)
		}
	}
}

func TestApplySeedMismatch(t *testing.T) {
	m, _ := trainDropBack(t, 3000)
	a := sparse.Compress(m)
	other := dropback.MNIST100100(12)
	if err := a.Apply(other); err == nil {
		t.Fatal("expected error for seed mismatch")
	}
}

func TestApplyArchitectureMismatch(t *testing.T) {
	m, _ := trainDropBack(t, 3000)
	a := sparse.Compress(m)
	other := models.ReducedMNISTMLP("x", 8, 4, 4, 11, nil)
	if err := a.Apply(other); err == nil {
		t.Fatal("expected error for parameter-count mismatch")
	}
}

func TestApplyRejectsOutOfRangeEntry(t *testing.T) {
	m := dropback.MNIST100100(1)
	a := sparse.Compress(m)
	a.Entries = append(a.Entries, sparse.Entry{Index: uint32(m.Set.Total() + 5), Value: 1})
	if err := a.Apply(dropback.MNIST100100(1)); err == nil {
		t.Fatal("expected error for out-of-range entry")
	}
}

// TestRejectedApplyLeavesModelUntouched checks that Apply validates the
// whole artifact before it writes anything: an out-of-range entry, entry
// indices that descend or repeat, or a batch norm channel mismatch must
// leave every parameter and every running
// statistic byte-identical, where a half-written model would keep
// regenerated weights or overlaid entries.
func TestRejectedApplyLeavesModelUntouched(t *testing.T) {
	src := dropback.VGGSReduced(8, 2, 3, false)
	for g := 0; g < src.Set.Total(); g += 7 {
		src.Set.Set(g, 0.25)
	}
	good := sparse.Compress(src)
	if len(good.BNs) == 0 {
		t.Fatal("setup: model has no batch norm")
	}
	outOfRange := *good
	outOfRange.Entries = append(append([]sparse.Entry(nil), good.Entries...),
		sparse.Entry{Index: uint32(good.TotalParams), Value: 1})
	descending := *good
	descending.Entries = append([]sparse.Entry(nil), good.Entries...)
	descending.Entries[0], descending.Entries[1] = descending.Entries[1], descending.Entries[0]
	repeated := *good
	repeated.Entries = append([]sparse.Entry(nil), good.Entries...)
	repeated.Entries[len(repeated.Entries)-1].Index = repeated.Entries[len(repeated.Entries)-2].Index
	mismatch := *good
	mismatch.BNs = append([]nn.BNStats(nil), good.BNs...)
	last := len(mismatch.BNs) - 1
	mismatch.BNs[last].RunningMean = mismatch.BNs[last].RunningMean[1:]
	mismatch.BNs[last].RunningVar = mismatch.BNs[last].RunningVar[1:]

	for name, a := range map[string]*sparse.Artifact{
		"out-of-range entry": &outOfRange, "descending entries": &descending,
		"repeated entry": &repeated, "bn channel mismatch": &mismatch,
	} {
		m := dropback.VGGSReduced(8, 2, 3, false)
		// Every weight off its regenerated value, every statistic off its
		// default, so any write shows.
		for g := 0; g < m.Set.Total(); g++ {
			m.Set.Set(g, -3)
		}
		nn.Walk(m.Net, func(l nn.Layer) {
			if bn, ok := l.(*nn.BatchNorm); ok {
				for c := range bn.RunningMean {
					bn.RunningMean[c], bn.RunningVar[c] = 0.5, 2
				}
			}
		})
		wantParams, wantBN := m.Set.Snapshot(), nn.CaptureBNState(m.Net)
		if err := a.Apply(m); err == nil {
			t.Fatalf("%s: Apply accepted the artifact", name)
		}
		for i, v := range m.Set.Snapshot() {
			if v != wantParams[i] {
				t.Fatalf("%s: rejected Apply wrote weight %d: %v, was %v", name, i, v, wantParams[i])
			}
		}
		for i, s := range nn.CaptureBNState(m.Net) {
			for j, v := range s {
				if v != wantBN[i][j] {
					t.Fatalf("%s: rejected Apply wrote batch norm %d statistic %d", name, i, j)
				}
			}
		}
	}
}

func TestStorageBytesAccounting(t *testing.T) {
	m, _ := trainDropBack(t, 2000)
	a := sparse.Compress(m)
	sparseBytes := a.StorageBytes()
	denseBytes := a.DenseStorageBytes()
	if sparseBytes >= denseBytes {
		t.Fatalf("sparse %d B not below dense %d B", sparseBytes, denseBytes)
	}
	// 89,610 params at budget 2000: dense 358 KB vs sparse ≤ ~16 KB + seed.
	if sparseBytes > 8+8*2000+1024 {
		t.Fatalf("sparse footprint %d B larger than expected", sparseBytes)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	m, val := trainDropBack(t, 4000)
	a := sparse.Compress(m)
	var buf bytes.Buffer
	if err := a.Write(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := sparse.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.ModelSeed != a.ModelSeed || b.TotalParams != a.TotalParams || len(b.Entries) != len(a.Entries) {
		t.Fatal("artifact header mismatch after round trip")
	}
	for i := range a.Entries {
		if a.Entries[i] != b.Entries[i] {
			t.Fatalf("entry %d mismatch", i)
		}
	}
	fresh := dropback.MNIST100100(11)
	if err := b.Apply(fresh); err != nil {
		t.Fatal(err)
	}
	x, _ := val.Batch(0, 8)
	y1 := m.Net.Forward(x, false)
	y2 := fresh.Net.Forward(x, false)
	for i := range y1.Data {
		if y1.Data[i] != y2.Data[i] {
			t.Fatal("inference differs after serialization round trip")
		}
	}
}

func TestSerializationWithBatchNorm(t *testing.T) {
	// A conv model with BN: running stats must survive the round trip.
	ds := dropback.CIFARLikeSized(120, 8, 13)
	train, val := ds.Split(96)
	m := dropback.VGGSReduced(8, 2, 13, false)
	dropback.Train(m, train, val, dropback.TrainConfig{
		Method: dropback.MethodDropBack, Budget: m.Set.Total() / 4,
		Epochs: 2, BatchSize: 16, Seed: 13,
	})
	a := sparse.Compress(m)
	if len(a.BNs) == 0 {
		t.Fatal("BN stats not captured")
	}
	var buf bytes.Buffer
	if err := a.Write(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := sparse.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fresh := dropback.VGGSReduced(8, 2, 13, false)
	if err := b.Apply(fresh); err != nil {
		t.Fatal(err)
	}
	x, _ := val.Batch(0, 4)
	y1 := m.Net.Forward(x, false)
	y2 := fresh.Net.Forward(x, false)
	for i := range y1.Data {
		if y1.Data[i] != y2.Data[i] {
			t.Fatal("BN model inference differs after round trip")
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	m, _ := trainDropBack(t, 1000)
	a := sparse.Compress(m)
	path := filepath.Join(t.TempDir(), "model.dbsp")
	if err := sparse.Save(path, a); err != nil {
		t.Fatal(err)
	}
	b, err := sparse.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.StoredWeights() != a.StoredWeights() {
		t.Fatal("file round trip changed entry count")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := sparse.Read(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatal("expected error for garbage input")
	}
	var buf bytes.Buffer
	buf.Write([]byte{0x50, 0x53, 0x42, 0x44}) // wrong byte order magic
	if _, err := sparse.Read(&buf); err == nil {
		t.Fatal("expected error for wrong magic")
	}
}

func TestBaselineModelCompressesPoorly(t *testing.T) {
	// The contrast case: a baseline-trained model deviates everywhere, so
	// the artifact approaches dense size — DropBack's budget is what makes
	// the artifact small.
	ds := dropback.MNISTLike(200, 17).Flatten()
	train, val := ds.Split(160)
	m := dropback.MNIST100100(17)
	dropback.Train(m, train, val, dropback.TrainConfig{
		Method: dropback.MethodBaseline, Epochs: 2, BatchSize: 32, Seed: 17,
	})
	a := sparse.Compress(m)
	if a.CompressionRatio() > 2 {
		t.Fatalf("baseline model compressed %.2fx — expected near-dense", a.CompressionRatio())
	}
}

func TestCompressAfterManualConstraint(t *testing.T) {
	// Compress must agree exactly with the constraint's mask when applied
	// right after an Apply: stored weights == tracked deviating weights.
	m := dropback.MNIST100100(19)
	db := core.New(m.Set, core.Config{Budget: 100})
	x := tensor.New(4, 784)
	for i := range x.Data {
		x.Data[i] = xorshift.IndexedUniform(3, uint64(i))
	}
	m.Step(x, []int{0, 1, 2, 3})
	for _, p := range m.Set.Params() {
		tensor.AXPY(-0.1, p.Grad, p.Value)
	}
	db.Apply()
	a := sparse.Compress(m)
	if a.StoredWeights() > 100 {
		t.Fatalf("stored %d > budget 100", a.StoredWeights())
	}
	mask := db.Mask()
	for _, e := range a.Entries {
		if !mask[e.Index] {
			t.Fatalf("stored weight %d is not in the tracked set", e.Index)
		}
	}
}

// TestReadRejectsVersion1 pins the rejection of the trailer-less version-1
// layout (header with version 1, seed 7, 784 parameters, no entries, no BN
// layers): nothing writes it, so nothing reads it.
func TestReadRejectsVersion1(t *testing.T) {
	v1, err := hex.DecodeString("50534244" + "01000000" + "0700000000000000" + "1003000000000000" + "00000000" + "00000000")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sparse.Read(bytes.NewReader(v1)); err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("version-1 stream: err = %v, want an unsupported-version-1 error", err)
	}
}

// TestReadDetectsPayloadCorruption flips a single bit inside an entry value
// and asserts the checksum trailer rejects the stream.
func TestReadDetectsPayloadCorruption(t *testing.T) {
	m := dropback.MNIST100100(5)
	for g := 0; g < 30; g++ {
		m.Set.Set(g*13, float32(g)+1)
	}
	var buf bytes.Buffer
	if err := sparse.Compress(m).Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Offset 28 lands inside the first entry's value field (8-byte header +
	// 8-byte seed + 8-byte total + 4-byte count + index).
	data[28] ^= 0x10
	if _, err := sparse.Read(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupted payload parsed without error")
	} else if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("expected a checksum error, got: %v", err)
	}
}

// TestSaveIsAtomic forces a Write failure partway through a Save over an
// existing artifact and asserts the original file is untouched.
func TestSaveAtomicOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.dbsp")
	m := dropback.MNIST100100(5)
	for g := 0; g < 10; g++ {
		m.Set.Set(g*3, float32(g)+2)
	}
	a := sparse.Compress(m)
	if err := sparse.Save(path, a); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A second Save to a read-only directory target cannot happen here, so
	// simulate failure by making the artifact unserializable: a BN name
	// beyond the format's length bound makes Write error mid-stream.
	bad := *a
	bad.BNs = append(bad.BNs, nn.BNStats{Name: string(make([]byte, 1<<13))})
	if err := sparse.Save(path, &bad); err == nil {
		t.Fatal("expected Save to fail on oversized BN name")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed Save modified the existing artifact")
	}
	if entries, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(entries) != 0 {
		t.Fatalf("failed Save left temp files behind: %v", entries)
	}
}
