package checkpoint

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dropback/internal/core"
)

// TestCheckpointSizeIndependentOfStepCount is the regression test for the
// swap-history bloat bug: before format 2, the TRST payload carried one
// int32 per completed training step, so checkpoints grew without bound on
// long runs. With the SwapSummary encoding the file size must be identical
// whether the run is 10 steps or a million steps old.
func TestCheckpointSizeIndependentOfStepCount(t *testing.T) {
	dir := t.TempDir()
	sizeAt := func(steps int) int64 {
		ts := sampleTrainState(7)
		ts.DropBack.StepCount = steps
		ts.DropBack.Swaps = core.SwapSummary{Steps: steps, Total: int64(steps) * 2, Max: 9, Last: 1}
		path := filepath.Join(dir, fmt.Sprintf("ck-%d.dbck", steps))
		if err := SaveTrain(path, trainedModel(3), ts); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	small := sizeAt(10)
	big := sizeAt(1_000_000)
	if small != big {
		t.Fatalf("checkpoint size depends on step count: %d bytes at 10 steps vs %d bytes at 1M steps", small, big)
	}
}

// TestFormat2RoundTripSwapSummary pins the summary encoding (format 2 on):
// a summary written by writeTrainPayload comes back bit-equal.
func TestFormat2RoundTripSwapSummary(t *testing.T) {
	ts := sampleTrainState(9)
	ts.DropBack.Swaps = core.SwapSummary{Steps: 1 << 30, Total: 1 << 40, Max: 12345, Last: 6}
	var buf bytes.Buffer
	if err := writeTrainPayload(&buf, ts); err != nil {
		t.Fatal(err)
	}
	got, err := readTrainPayload(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.DropBack.Swaps != ts.DropBack.Swaps {
		t.Fatalf("Swaps = %+v, want %+v", got.DropBack.Swaps, ts.DropBack.Swaps)
	}
}
