package data

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"dropback/internal/tensor"
)

// The MNIST IDX format (LeCun 1998): a big-endian magic number encoding the
// element type and rank, followed by the dimension sizes and raw data.
// These loaders let the experiments run on the real MNIST files when they
// are present; otherwise the synthetic generator is used.

const (
	idxMagicImages = 0x00000803 // unsigned byte, rank 3
	idxMagicLabels = 0x00000801 // unsigned byte, rank 1
)

// ReadIDXImages parses an IDX image file into an (N, 1, H, W) tensor with
// pixel values scaled to [0, 1].
func ReadIDXImages(r io.Reader) (*tensor.Tensor, error) {
	var hdr [4]uint32
	for i := range hdr {
		if err := binary.Read(r, binary.BigEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("data: reading IDX image header: %w", err)
		}
	}
	if hdr[0] != idxMagicImages {
		return nil, fmt.Errorf("data: bad IDX image magic %#x", hdr[0])
	}
	n, h, w := int(hdr[1]), int(hdr[2]), int(hdr[3])
	if n <= 0 || h <= 0 || w <= 0 || n > 1<<24 || h > 4096 || w > 4096 {
		return nil, fmt.Errorf("data: implausible IDX image dims %d×%d×%d", n, h, w)
	}
	// The buffer grows as pixels arrive, so a corrupt header over a short
	// stream cannot first allocate the n·h·w bytes it claims.
	raw, err := io.ReadAll(io.LimitReader(r, int64(n*h*w)))
	if err == nil && len(raw) < n*h*w {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("data: reading IDX pixels: %w", err)
	}
	t := tensor.New(n, 1, h, w)
	for i, b := range raw {
		t.Data[i] = float32(b) / 255
	}
	return t, nil
}

// ReadIDXLabels parses an IDX label file.
func ReadIDXLabels(r io.Reader) ([]int, error) {
	var magic, n uint32
	if err := binary.Read(r, binary.BigEndian, &magic); err != nil {
		return nil, fmt.Errorf("data: reading IDX label header: %w", err)
	}
	if magic != idxMagicLabels {
		return nil, fmt.Errorf("data: bad IDX label magic %#x", magic)
	}
	if err := binary.Read(r, binary.BigEndian, &n); err != nil {
		return nil, fmt.Errorf("data: reading IDX label count: %w", err)
	}
	if n == 0 || n > 1<<24 {
		return nil, fmt.Errorf("data: implausible IDX label count %d", n)
	}
	raw := make([]byte, n)
	if _, err := io.ReadFull(r, raw); err != nil {
		return nil, fmt.Errorf("data: reading IDX labels: %w", err)
	}
	labels := make([]int, n)
	for i, b := range raw {
		labels[i] = int(b)
	}
	return labels, nil
}

// LoadMNIST loads an images/labels IDX file pair into a dataset.
func LoadMNIST(imagesPath, labelsPath string) (*Dataset, error) {
	imf, err := os.Open(imagesPath)
	if err != nil {
		return nil, err
	}
	defer imf.Close()
	x, err := ReadIDXImages(imf)
	if err != nil {
		return nil, err
	}
	lbf, err := os.Open(labelsPath)
	if err != nil {
		return nil, err
	}
	defer lbf.Close()
	y, err := ReadIDXLabels(lbf)
	if err != nil {
		return nil, err
	}
	if len(y) != x.Shape[0] {
		return nil, fmt.Errorf("data: %d labels for %d images", len(y), x.Shape[0])
	}
	classes := 0
	for _, l := range y {
		if l+1 > classes {
			classes = l + 1
		}
	}
	return &Dataset{X: x, Y: y, Classes: classes}, nil
}

// cifarRecordSize is 1 label byte + 3×32×32 pixel bytes.
const cifarRecordSize = 1 + 3*32*32

// ReadCIFAR10Binary parses one CIFAR-10 binary batch file (the
// data_batch_N.bin format: per record, a label byte then the R, G, B
// planes) into a dataset with pixels scaled to [0, 1].
func ReadCIFAR10Binary(r io.Reader) (*Dataset, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("data: reading CIFAR batch: %w", err)
	}
	if len(raw) == 0 || len(raw)%cifarRecordSize != 0 {
		return nil, fmt.Errorf("data: CIFAR batch size %d is not a multiple of %d", len(raw), cifarRecordSize)
	}
	n := len(raw) / cifarRecordSize
	x := tensor.New(n, 3, 32, 32)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		rec := raw[i*cifarRecordSize : (i+1)*cifarRecordSize]
		if rec[0] > 9 {
			return nil, fmt.Errorf("data: CIFAR label %d out of range", rec[0])
		}
		y[i] = int(rec[0])
		for j, b := range rec[1:] {
			x.Data[i*3*32*32+j] = float32(b) / 255
		}
	}
	return &Dataset{X: x, Y: y, Classes: 10}, nil
}

// LoadCIFAR10 loads and concatenates CIFAR-10 binary batch files.
func LoadCIFAR10(paths ...string) (*Dataset, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("data: no CIFAR batch files given")
	}
	var parts []*Dataset
	total := 0
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		ds, err := ReadCIFAR10Binary(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("data: %s: %w", p, err)
		}
		parts = append(parts, ds)
		total += ds.Len()
	}
	x := tensor.New(total, 3, 32, 32)
	y := make([]int, 0, total)
	off := 0
	for _, p := range parts {
		copy(x.Data[off:], p.X.Data)
		off += p.X.Len()
		y = append(y, p.Y...)
	}
	return &Dataset{X: x, Y: y, Classes: 10}, nil
}
