package data

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"dropback/internal/tensor"
)

func TestGenerateShapesAndLabels(t *testing.T) {
	ds := Generate(MNISTLike(100, 1))
	if ds.Len() != 100 {
		t.Fatalf("Len = %d, want 100", ds.Len())
	}
	want := []int{100, 1, 28, 28}
	for i, w := range want {
		if ds.X.Shape[i] != w {
			t.Fatalf("shape = %v, want %v", ds.X.Shape, want)
		}
	}
	counts := make([]int, 10)
	for _, y := range ds.Y {
		if y < 0 || y > 9 {
			t.Fatalf("label %d out of range", y)
		}
		counts[y]++
	}
	for c, n := range counts {
		if n != 10 {
			t.Fatalf("class %d has %d samples, want 10 (balanced)", c, n)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(MNISTLike(50, 7))
	b := Generate(MNISTLike(50, 7))
	for i := range a.X.Data {
		if a.X.Data[i] != b.X.Data[i] {
			t.Fatal("same seed must produce identical pixels")
		}
	}
	for i := range a.Y {
		if a.Y[i] != b.Y[i] {
			t.Fatal("same seed must produce identical labels")
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a := Generate(MNISTLike(50, 1))
	b := Generate(MNISTLike(50, 2))
	same := 0
	for i := range a.X.Data {
		if a.X.Data[i] == b.X.Data[i] {
			same++
		}
	}
	if same == len(a.X.Data) {
		t.Fatal("different seeds produced identical datasets")
	}
}

func TestGeneratePixelRange(t *testing.T) {
	ds := Generate(CIFARLike(30, 3))
	if ds.X.Shape[1] != 3 || ds.X.Shape[2] != 32 {
		t.Fatalf("CIFAR-like shape = %v", ds.X.Shape)
	}
	for _, v := range ds.X.Data {
		if v < 0 || v > 1.5 {
			t.Fatalf("pixel %v out of [0,1.5]", v)
		}
	}
}

func TestGenerateClassesAreSeparable(t *testing.T) {
	// Nearest-class-template classification must beat chance by a wide
	// margin — otherwise the dataset cannot support the paper's accuracy
	// comparisons.
	cfg := MNISTLike(200, 11)
	ds := Generate(cfg)
	// Build class means from the first half; classify the second half.
	ss := ds.X.Len() / ds.Len()
	means := make([][]float64, cfg.Classes)
	counts := make([]int, cfg.Classes)
	for c := range means {
		means[c] = make([]float64, ss)
	}
	for i := 0; i < 100; i++ {
		c := ds.Y[i]
		counts[c]++
		for j := 0; j < ss; j++ {
			means[c][j] += float64(ds.X.Data[i*ss+j])
		}
	}
	for c := range means {
		for j := range means[c] {
			means[c][j] /= float64(counts[c])
		}
	}
	correct := 0
	for i := 100; i < 200; i++ {
		best, bestD := -1, 1e18
		for c := range means {
			var d float64
			for j := 0; j < ss; j++ {
				diff := float64(ds.X.Data[i*ss+j]) - means[c][j]
				d += diff * diff
			}
			if d < bestD {
				bestD, best = d, c
			}
		}
		if best == ds.Y[i] {
			correct++
		}
	}
	if correct < 60 { // chance is 10
		t.Fatalf("nearest-mean accuracy %d/100, dataset not separable enough", correct)
	}
}

func TestSubsetAndBatch(t *testing.T) {
	ds := Generate(MNISTLike(20, 5))
	sub := ds.Subset([]int{3, 7, 11})
	if sub.Len() != 3 {
		t.Fatalf("subset len = %d", sub.Len())
	}
	ss := ds.X.Len() / ds.Len()
	for j := 0; j < ss; j++ {
		if sub.X.Data[ss+j] != ds.X.Data[7*ss+j] {
			t.Fatal("subset sample 1 != source sample 7")
		}
	}
	x, y := ds.Batch(5, 8)
	if x.Shape[0] != 3 || len(y) != 3 {
		t.Fatalf("batch shapes: %v, %d labels", x.Shape, len(y))
	}
}

func TestSplitBalancedAndDisjoint(t *testing.T) {
	ds := Generate(MNISTLike(100, 9))
	tr, va := ds.Split(80)
	if tr.Len() != 80 || va.Len() != 20 {
		t.Fatalf("split sizes %d/%d", tr.Len(), va.Len())
	}
}

func TestFlattenView(t *testing.T) {
	ds := Generate(MNISTLike(10, 1))
	flat := ds.Flatten()
	if flat.X.Dims() != 2 || flat.X.Dim(1) != 784 {
		t.Fatalf("flatten shape = %v", flat.X.Shape)
	}
}

func TestBatcherCoversEpoch(t *testing.T) {
	ds := Generate(MNISTLike(64, 2))
	b := NewBatcher(ds, 16, 1)
	if b.BatchesPerEpoch() != 4 {
		t.Fatalf("batches per epoch = %d, want 4", b.BatchesPerEpoch())
	}
	seen := map[int]int{}
	for i := 0; i < 4; i++ {
		_, y := b.Next()
		if len(y) != 16 {
			t.Fatalf("batch size = %d", len(y))
		}
		for _, l := range y {
			seen[l]++
		}
	}
	total := 0
	for _, n := range seen {
		total += n
	}
	if total != 64 {
		t.Fatalf("epoch covered %d samples, want 64", total)
	}
}

func TestBatcherDeterministic(t *testing.T) {
	ds := Generate(MNISTLike(32, 2))
	a := NewBatcher(ds, 8, 42)
	b := NewBatcher(ds, 8, 42)
	for i := 0; i < 8; i++ {
		_, ya := a.Next()
		_, yb := b.Next()
		for j := range ya {
			if ya[j] != yb[j] {
				t.Fatal("same-seed batchers must emit identical batches")
			}
		}
	}
}

func TestBatcherClampsBatchSize(t *testing.T) {
	ds := Generate(MNISTLike(10, 2))
	b := NewBatcher(ds, 100, 1)
	if b.BatchSize != 10 {
		t.Fatalf("batch size = %d, want clamped to 10", b.BatchSize)
	}
}

// writeIDX builds a tiny IDX pair in memory.
func writeIDX(n, h, w int) (images, labels *bytes.Buffer) {
	images = new(bytes.Buffer)
	binary.Write(images, binary.BigEndian, uint32(idxMagicImages))
	binary.Write(images, binary.BigEndian, uint32(n))
	binary.Write(images, binary.BigEndian, uint32(h))
	binary.Write(images, binary.BigEndian, uint32(w))
	for i := 0; i < n*h*w; i++ {
		images.WriteByte(byte(i % 256))
	}
	labels = new(bytes.Buffer)
	binary.Write(labels, binary.BigEndian, uint32(idxMagicLabels))
	binary.Write(labels, binary.BigEndian, uint32(n))
	for i := 0; i < n; i++ {
		labels.WriteByte(byte(i % 10))
	}
	return images, labels
}

func TestReadIDXRoundTrip(t *testing.T) {
	im, lb := writeIDX(3, 4, 5)
	x, err := ReadIDXImages(im)
	if err != nil {
		t.Fatal(err)
	}
	if x.Shape[0] != 3 || x.Shape[2] != 4 || x.Shape[3] != 5 {
		t.Fatalf("IDX image shape = %v", x.Shape)
	}
	if x.Data[1] != 1.0/255 {
		t.Fatalf("pixel scaling wrong: %v", x.Data[1])
	}
	y, err := ReadIDXLabels(lb)
	if err != nil {
		t.Fatal(err)
	}
	if len(y) != 3 || y[2] != 2 {
		t.Fatalf("IDX labels = %v", y)
	}
}

func TestReadIDXBadMagic(t *testing.T) {
	buf := new(bytes.Buffer)
	binary.Write(buf, binary.BigEndian, uint32(0xDEADBEEF))
	binary.Write(buf, binary.BigEndian, uint32(1))
	binary.Write(buf, binary.BigEndian, uint32(1))
	binary.Write(buf, binary.BigEndian, uint32(1))
	if _, err := ReadIDXImages(buf); err == nil {
		t.Fatal("expected error for bad magic")
	}
}

func TestReadIDXTruncated(t *testing.T) {
	im, _ := writeIDX(2, 3, 3)
	short := bytes.NewReader(im.Bytes()[:20])
	if _, err := ReadIDXImages(short); err == nil {
		t.Fatal("expected error for truncated file")
	}
}

func TestReadCIFAR10Binary(t *testing.T) {
	buf := new(bytes.Buffer)
	for rec := 0; rec < 2; rec++ {
		buf.WriteByte(byte(rec + 3)) // labels 3, 4
		for i := 0; i < 3*32*32; i++ {
			buf.WriteByte(byte(i % 251))
		}
	}
	ds, err := ReadCIFAR10Binary(buf)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 2 || ds.Y[0] != 3 || ds.Y[1] != 4 {
		t.Fatalf("CIFAR parse: len=%d labels=%v", ds.Len(), ds.Y)
	}
	if ds.X.Shape[1] != 3 || ds.X.Shape[2] != 32 {
		t.Fatalf("CIFAR shape = %v", ds.X.Shape)
	}
}

func TestReadCIFAR10BadSize(t *testing.T) {
	if _, err := ReadCIFAR10Binary(bytes.NewReader(make([]byte, 100))); err == nil {
		t.Fatal("expected error for bad record size")
	}
}

func TestReadCIFAR10BadLabel(t *testing.T) {
	raw := make([]byte, cifarRecordSize)
	raw[0] = 99
	if _, err := ReadCIFAR10Binary(bytes.NewReader(raw)); err == nil {
		t.Fatal("expected error for out-of-range label")
	}
}

func TestSubsetPanicsOnBadIndex(t *testing.T) {
	ds := Generate(MNISTLike(10, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ds.Subset([]int{99})
}

func TestBatchPanicsOnBadRange(t *testing.T) {
	ds := Generate(MNISTLike(10, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ds.Batch(8, 20)
}

func TestDatasetTensorViewIsShared(t *testing.T) {
	// Batch returns a view into the dataset; mutating it mutates the
	// source. Document-by-test so callers copy when needed.
	ds := Generate(MNISTLike(10, 1))
	x, _ := ds.Batch(0, 1)
	orig := ds.X.Data[0]
	x.Data[0] = orig + 1
	if ds.X.Data[0] != orig+1 {
		t.Fatal("Batch should be a view (zero-copy)")
	}
	ds.X.Data[0] = orig
	_ = tensor.New(1) // keep tensor import
}

// TestReadIDXImagesAllocatesOnlyWhatArrives feeds a header that claims
// 2²⁴×4096×4096 pixels over a stream that ends right after it. The reader
// must fail with io.ErrUnexpectedEOF without first allocating the claimed
// size.
func TestReadIDXImagesAllocatesOnlyWhatArrives(t *testing.T) {
	var hdr bytes.Buffer
	for _, v := range []uint32{idxMagicImages, 1 << 24, 4096, 4096} {
		if err := binary.Write(&hdr, binary.BigEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadIDXImages(bytes.NewReader(hdr.Bytes()))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("ReadIDXImages error = %v, want io.ErrUnexpectedEOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("ReadIDXImages allocated %d bytes for a %d-byte stream", grew, hdr.Len())
	}
}
