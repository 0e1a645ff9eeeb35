package optim

import (
	"fmt"

	"dropback/internal/nn"
)

// CaptureState exports SGD's optimizer state for a checkpoint. Plain SGD
// has none, so the map is nil; the checkpoint format keeps the slot so a
// file written by a stateful optimizer is recognisable on resume.
func (o *SGD) CaptureState(*nn.ParamSet) map[string][]float32 { return nil }

// RestoreState accepts only the empty state CaptureState writes: a
// checkpoint that carries optimizer state was written by another optimizer.
func (o *SGD) RestoreState(_ *nn.ParamSet, state map[string][]float32) error {
	if len(state) != 0 {
		return fmt.Errorf("optim: SGD is stateless but checkpoint carries %d state slices", len(state))
	}
	return nil
}
