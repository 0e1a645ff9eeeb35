package dropback

import (
	"path/filepath"
	"testing"

	"dropback/internal/sparse"
)

func TestDeployPipelineFacade(t *testing.T) {
	train, val := smallData(300, 31)
	m := smallMLP(31)
	Train(m, train, val, TrainConfig{
		Method: MethodDropBack, Budget: 500, FreezeAfterEpoch: 1,
		Epochs: 3, BatchSize: 32, Seed: 31,
	})
	art := CompressSparse(m)
	if art.StoredWeights() > 500 {
		t.Fatalf("stored %d weights, budget 500", art.StoredWeights())
	}
	dir := t.TempDir()
	spPath := filepath.Join(dir, "m.dbsp")
	if err := SaveSparse(spPath, art); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSparse(spPath)
	if err != nil {
		t.Fatal(err)
	}
	fresh := smallMLP(31)
	if err := loaded.Apply(fresh); err != nil {
		t.Fatal(err)
	}
	_, a1 := Evaluate(m, val, 32)
	_, a2 := Evaluate(fresh, val, 32)
	if a1 != a2 {
		t.Fatalf("sparse round trip changed accuracy: %v vs %v", a1, a2)
	}

	qa, err := QuantizeSparse(art, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int{0, 9, -3} {
		if _, err := QuantizeSparse(art, bad); err == nil {
			t.Fatalf("QuantizeSparse accepted illegal bit width %d", bad)
		}
	}
	q := smallMLP(31)
	if err := qa.Decompress().Apply(q); err != nil {
		t.Fatal(err)
	}
	if qa.StorageBytes() >= art.StorageBytes() {
		t.Fatal("quantized artifact not smaller")
	}
}

func TestCheckpointFacade(t *testing.T) {
	train, val := smallData(200, 33)
	m := smallMLP(33)
	Train(m, train, val, TrainConfig{Method: MethodBaseline, Epochs: 2, BatchSize: 32, Seed: 33})
	path := filepath.Join(t.TempDir(), "m.dbck")
	if err := SaveCheckpoint(path, m); err != nil {
		t.Fatal(err)
	}
	fresh := smallMLP(33)
	if err := LoadCheckpoint(path, fresh); err != nil {
		t.Fatal(err)
	}
	a, b := m.Set.Snapshot(), fresh.Set.Snapshot()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("checkpoint facade round trip mismatch")
		}
	}
}

// TestCompileValidation covers the artifact/prototype mismatch paths of
// CompileSparse: a different seed, a different architecture, an entry index
// out of range, and entry indices that repeat or descend.
func TestCompileValidation(t *testing.T) {
	m := MNIST100100(1)
	for i := 0; i < m.Set.Total(); i += 20 {
		m.Set.Set(i, 0.5)
	}
	art := CompressSparse(m)
	edited := func(edit func(es []sparse.Entry)) *SparseArtifact {
		a := *art
		a.Entries = append([]sparse.Entry(nil), art.Entries...)
		edit(a.Entries)
		return &a
	}
	bad := []struct {
		name  string
		proto *Model
		art   *SparseArtifact
	}{
		{"seed mismatch", MNIST100100(2), art},
		{"parameter-count mismatch", LeNet300100(1), art},
		{"index out of range", MNIST100100(1), edited(func(es []sparse.Entry) { es[len(es)-1].Index = uint32(art.TotalParams) })},
		{"repeated index", MNIST100100(1), edited(func(es []sparse.Entry) { es[1].Index = es[0].Index })},
		{"descending indices", MNIST100100(1), edited(func(es []sparse.Entry) { es[0], es[1] = es[1], es[0] })},
	}
	for _, tc := range bad {
		if _, err := CompileSparse(tc.proto, tc.art); err == nil {
			t.Errorf("%s: CompileSparse accepted the artifact", tc.name)
		}
	}
	if _, err := CompileSparse(MNIST100100(1), art); err != nil {
		t.Errorf("valid compile failed: %v", err)
	}
}
