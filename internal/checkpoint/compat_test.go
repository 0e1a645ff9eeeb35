package checkpoint

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"
)

// golden decodes a hex literal split across lines for readability.
func golden(t *testing.T, parts ...string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.Join(parts, ""))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReadRejectsVersion1 pins the rejection of the unsectioned version-1
// layout (header with version 1, then a zero parameter count and a zero BN
// count, with no section framing): nothing writes it, so nothing reads it.
func TestReadRejectsVersion1(t *testing.T) {
	v1 := golden(t, "4b434244", "01000000", "0700000000000000", "00000000", "00000000")
	_, err := Read(bytes.NewReader(v1))
	if err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("version-1 stream: err = %v, want an unsupported-version-1 error", err)
	}
}

// TestReadRejectsOldTrainStateFormats pins the rejection of TRST payloads
// older than format 3, which gave Dropout layers a xorshift stream position
// where format 3 stores a sample count. Each golden file is a well-formed
// version-2 envelope (seed 7, empty PRMS and BNST sections, a TRST section
// holding only the format word, DEND) with correct section CRCs, so only the
// format can be what Read rejects, and LoadLatestValid must skip the file.
func TestReadRejectsOldTrainStateFormats(t *testing.T) {
	files := map[uint32][]byte{
		1: golden(t,
			"4b434244020000000700000000000000534d5250040000000000000000000000",
			"c74b674854534e42040000000000000000000000c74b67485453525404000000",
			"00000000010000007fe12295444e4544000000000000000000000000"),
		2: golden(t,
			"4b434244020000000700000000000000534d5250040000000000000000000000",
			"c74b674854534e42040000000000000000000000c74b67485453525404000000",
			"0000000002000000466800f7444e4544000000000000000000000000"),
	}
	for format, b := range files {
		want := fmt.Sprintf("unsupported train-state format %d", format)
		if _, err := Read(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("format %d: Read err = %v, want %q", format, err, want)
		}

		g := &Manager{Dir: t.TempDir()}
		if err := os.WriteFile(g.Path(5), b, 0o644); err != nil {
			t.Fatal(err)
		}
		ts, report, err := g.LoadLatestValid(trainedModel(3))
		if err != nil || ts != nil {
			t.Fatalf("format %d: LoadLatestValid = %+v, %v; want no state and no error", format, ts, err)
		}
		if len(report.Skipped) != 1 || report.Skipped[0].Path != g.Path(5) ||
			!strings.Contains(report.Skipped[0].Err.Error(), want) {
			t.Fatalf("format %d: report.Skipped = %+v, want the file with %q", format, report.Skipped, want)
		}
	}
}
