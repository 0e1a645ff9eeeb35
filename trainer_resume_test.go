package dropback_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dropback"
	"dropback/internal/faults"
)

// writeResumeFixture trains one epoch with managed checkpoints and returns
// the checkpoint path plus the config the run used.
func writeResumeFixture(t *testing.T) (string, dropback.TrainConfig) {
	t.Helper()
	cfg := dropback.TrainConfig{
		Method: dropback.MethodBaseline, Epochs: 2, BatchSize: 32, Seed: 11}
	dir := t.TempDir()
	m, train, val := ftMLP(11)
	cfgA := cfg
	cfgA.Epochs = 1
	cfgA.Checkpoint = &dropback.CheckpointSpec{Dir: dir, Every: 1}
	dropback.Train(m, train, val, cfgA)
	files, err := filepath.Glob(filepath.Join(dir, "*.dbck"))
	if err != nil || len(files) != 1 {
		t.Fatalf("expected 1 checkpoint, found %v (err %v)", files, err)
	}
	return files[0], cfg
}

// loadResumeFixture loads the checkpoint into a fresh model and hands back
// both, so each subtest can poison its own copy of the train state.
func loadResumeFixture(t *testing.T, path string) (*dropback.Model, *dropback.TrainState) {
	t.Helper()
	m, _, _ := ftMLP(11)
	ts, err := dropback.LoadTrainCheckpoint(path, m)
	if err != nil {
		t.Fatal(err)
	}
	if ts == nil {
		t.Fatal("checkpoint carried no train state")
	}
	return m, ts
}

// TestResumeRejectsCorruptBatcherCursor is the regression test for the
// resume-validation hole: a TrainState whose saved batcher cursor lies
// outside its permutation — or beyond the dataset being resumed against —
// used to slip through TrainConfig.Validate and silently skip or misread
// batches. Every poisoned cursor must now produce a descriptive error
// before any training step runs.
func TestResumeRejectsCorruptBatcherCursor(t *testing.T) {
	path, cfg := writeResumeFixture(t)

	expectErr := func(t *testing.T, ts *dropback.TrainState, m *dropback.Model, train, val *dropback.Dataset, wantSub string) {
		t.Helper()
		c := cfg
		c.ResumeFrom = ts
		_, err := dropback.TrainE(m, train, val, c)
		if err == nil {
			t.Fatalf("TrainE accepted a resume state with batcher cursor %d over a %d-sample permutation (dataset %d)",
				ts.Batcher.Pos, len(ts.Batcher.Perm), train.Len())
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("error %q does not mention %q", err, wantSub)
		}
	}

	t.Run("cursor beyond permutation", func(t *testing.T) {
		m, ts := loadResumeFixture(t, path)
		_, train, val := ftMLP(11)
		ts.Batcher.Pos = len(ts.Batcher.Perm) + 1
		expectErr(t, ts, m, train, val, "exceeds its")
	})

	t.Run("negative cursor", func(t *testing.T) {
		m, ts := loadResumeFixture(t, path)
		_, train, val := ftMLP(11)
		ts.Batcher.Pos = -1
		expectErr(t, ts, m, train, val, "negative")
	})

	t.Run("empty permutation with nonzero cursor", func(t *testing.T) {
		// The empty-Perm state used to bypass validation entirely, because
		// the run-state restore skips the batcher restore when no
		// permutation was recorded.
		m, ts := loadResumeFixture(t, path)
		_, train, val := ftMLP(11)
		ts.Batcher.Perm = nil
		ts.Batcher.Pos = 5
		expectErr(t, ts, m, train, val, "cursor")
	})

	t.Run("dataset shrank since checkpoint", func(t *testing.T) {
		// Cursor is inside its permutation, so Validate passes, but the
		// dataset being resumed against is smaller than the cursor — the
		// run-state restore must catch it.
		m, ts := loadResumeFixture(t, path)
		small := dropback.MNISTLike(100, 11).Flatten()
		train, val := small.Split(80)
		if ts.Batcher.Pos <= train.Len() {
			ts.Batcher.Pos = train.Len() + 1
		}
		if ts.Batcher.Pos > len(ts.Batcher.Perm) {
			t.Fatalf("fixture cursor %d cannot exceed permutation %d for this subtest",
				ts.Batcher.Pos, len(ts.Batcher.Perm))
		}
		expectErr(t, ts, m, train, val, "dataset")
	})
}

// TestResumeRejectsCorruptCheckpointFile closes the file-level half of the
// same hole with the fault injectors: a bit-flipped or truncated checkpoint
// must fail at load with an error — it can never hand back a TrainState
// with a garbage cursor.
func TestResumeRejectsCorruptCheckpointFile(t *testing.T) {
	t.Run("bit flip", func(t *testing.T) {
		path, _ := writeResumeFixture(t)
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := faults.FlipBitInFile(path, fi.Size()/2, 3); err != nil {
			t.Fatal(err)
		}
		m, _, _ := ftMLP(11)
		if _, err := dropback.LoadTrainCheckpoint(path, m); err == nil {
			t.Fatal("loaded a bit-flipped checkpoint without error")
		}
	})

	t.Run("truncation", func(t *testing.T) {
		path, _ := writeResumeFixture(t)
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := faults.TruncateFile(path, fi.Size()-8); err != nil {
			t.Fatal(err)
		}
		m, _, _ := ftMLP(11)
		if _, err := dropback.LoadTrainCheckpoint(path, m); err == nil {
			t.Fatal("loaded a truncated checkpoint without error")
		}
	})
}

// TestResumeRejectsMalformedBestBN: the best-epoch BatchNorm snapshot is
// restored by position, so one with an entry missing or of the wrong width
// would silently skip layers or fill the wrong ones. Resume must refuse both
// before training.
func TestResumeRejectsMalformedBestBN(t *testing.T) {
	dir := t.TempDir()
	cfg := dropback.TrainConfig{Method: dropback.MethodBaseline, Epochs: 1, BatchSize: 16, Seed: 17,
		Checkpoint: &dropback.CheckpointSpec{Dir: dir, Every: 1}}
	m, train, val := ftConv(17)
	dropback.Train(m, train, val, cfg)
	files, err := filepath.Glob(filepath.Join(dir, "*.dbck"))
	if err != nil || len(files) != 1 {
		t.Fatalf("expected 1 checkpoint, found %v (err %v)", files, err)
	}
	cfg.Epochs, cfg.Checkpoint = 2, nil

	for name, poison := range map[string]func(bn [][]float32) [][]float32{
		"entry dropped": func(bn [][]float32) [][]float32 { return bn[1:] },
		"wrong width": func(bn [][]float32) [][]float32 {
			bn[1] = append(bn[1], 0)
			return bn
		},
	} {
		t.Run(name, func(t *testing.T) {
			m, train, val := ftConv(17)
			ts, err := dropback.LoadTrainCheckpoint(files[0], m)
			if err != nil {
				t.Fatal(err)
			}
			if ts.BestEpoch == 0 || len(ts.BestBN) < 2 {
				t.Fatalf("fixture has best epoch %d with %d BatchNorm entries; want a best snapshot over 2+", ts.BestEpoch, len(ts.BestBN))
			}
			ts.BestBN = poison(ts.BestBN)
			c := cfg
			c.ResumeFrom = ts
			if _, err := dropback.TrainE(m, train, val, c); err == nil || !strings.Contains(err.Error(), "BatchNorm") {
				t.Fatalf("resume with a malformed best BatchNorm snapshot: got %v, want a BatchNorm error", err)
			}
		})
	}
}
