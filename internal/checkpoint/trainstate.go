package checkpoint

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"dropback/internal/core"
	"dropback/internal/data"
)

// TrainState is everything a training run needs, beyond the weights and
// batch-norm statistics stored alongside it, to resume bit-identically:
// position counters, the learning-rate backoff scale, best-epoch tracking
// (Train restores the best weights at the end, so the best snapshot must
// survive a crash), the per-epoch history, the batcher's shuffle RNG
// position, optimizer state, and DropBack's tracked-set state.
//
// TrainState is deliberately worker-count-free: the data-parallel executor
// is bit-identical to sequential training at any worker count (DESIGN.md
// §8), so the number of training workers is an execution detail, never
// resumable state. A checkpoint written at one worker count resumes at any
// other without a format change — and must stay that way.
type TrainState struct {
	// Epoch is the number of completed epochs; Step the number of completed
	// optimizer steps.
	Epoch int
	Step  int
	// LRScale is the divergence-recovery backoff multiplier applied on top
	// of the schedule (1 when no rollback has happened); Retries is the
	// number of recovery retries consumed so far.
	LRScale float32
	Retries int

	// Best-epoch tracking: Train restores the best weights when it returns,
	// so the best snapshot is part of the resumable state.
	BestEpoch  int
	BestValAcc float64
	SinceBest  int
	BestParams []float32
	BestBN     [][]float32

	// History is the per-epoch record accumulated so far.
	History []EpochRecord

	// Batcher is the data order: shuffle RNG state, current permutation,
	// and cursor.
	Batcher data.BatcherState

	// OptName names the optimizer ("sgd", "momentum", "adam"); Opt carries
	// its per-parameter state (empty for plain SGD, the only optimizer the
	// trainer runs).
	OptName string
	Opt     map[string][]float32

	// LayerRNG holds the random state of every stochastic layer, keyed by
	// layer name: a Dropout layer's count of training samples forwarded,
	// a variational-dropout layer's noise-stream position.
	LayerRNG map[string]uint64

	// DropBack is the constraint state when training with MethodDropBack
	// (nil otherwise).
	DropBack *core.State
}

// EpochRecord is one epoch of training history. The trainer's EpochStats
// is an alias of it, so a run's History goes into a TrainState as it is.
type EpochRecord struct {
	Epoch     int
	LR        float32
	TrainLoss float64
	TrainAcc  float64
	ValLoss   float64
	ValAcc    float64
}

// trainStateFormat versions the TRST payload independently of the envelope.
// Format 2 replaced the per-step swap-history series with the four-scalar
// core.SwapSummary. Format 3 changed what a Dropout layer's LayerRNG entry
// means, from a xorshift stream position to a count of training samples, so
// older payloads are rejected rather than resumed onto different masks.
const trainStateFormat uint32 = 3

// ew accumulates the first write error so encoding code can stay linear.
type ew struct {
	w   io.Writer
	err error
}

func (e *ew) write(v any) {
	if e.err == nil {
		e.err = binary.Write(e.w, binary.LittleEndian, v)
	}
}

func (e *ew) bytes(p []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(p)
	}
}

func (e *ew) str(s string) {
	if e.err == nil {
		e.err = writeString(e.w, s)
	}
}

func (e *ew) floats(v []float32) {
	e.write(uint64(len(v)))
	if e.err == nil {
		e.err = writeFloats(e.w, v)
	}
}

func (e *ew) bool(b bool) {
	var v uint8
	if b {
		v = 1
	}
	e.write(v)
}

// er accumulates the first read error and applies bounds.
type er struct {
	r   io.Reader
	err error
}

func (e *er) read(v any) {
	if e.err == nil {
		e.err = binary.Read(e.r, binary.LittleEndian, v)
	}
}

func (e *er) u32(what string, max uint32) uint32 {
	var v uint32
	e.read(&v)
	if e.err == nil && v > max {
		e.err = fmt.Errorf("checkpoint: implausible %s count %d", what, v)
	}
	return v
}

func (e *er) i64(what string, min, max int64) int64 {
	var v int64
	e.read(&v)
	if e.err == nil && (v < min || v > max) {
		e.err = fmt.Errorf("checkpoint: %s %d out of range", what, v)
	}
	return v
}

func (e *er) str() string {
	if e.err != nil {
		return ""
	}
	s, err := readString(e.r)
	e.err = err
	return s
}

func (e *er) floats(what string) []float32 {
	var n uint64
	e.read(&n)
	if e.err == nil && n > maxTensor {
		e.err = fmt.Errorf("checkpoint: implausible %s length %d", what, n)
	}
	if e.err != nil {
		return nil
	}
	v, err := readFloats(e.r, int(n))
	e.err = err
	return v
}

func (e *er) bool() bool {
	var v uint8
	e.read(&v)
	return v != 0
}

// writeTrainPayload encodes a TrainState into the TRST section payload.
func writeTrainPayload(w io.Writer, ts *TrainState) error {
	e := &ew{w: w}
	e.write(trainStateFormat)
	e.write(int64(ts.Epoch))
	e.write(int64(ts.Step))
	e.write(math.Float32bits(ts.LRScale))
	e.write(int32(ts.Retries))

	e.write(int64(ts.BestEpoch))
	e.write(ts.BestValAcc)
	e.write(int64(ts.SinceBest))
	e.floats(ts.BestParams)
	e.write(uint32(len(ts.BestBN)))
	for _, bn := range ts.BestBN {
		e.floats(bn)
	}

	e.write(uint32(len(ts.History)))
	for _, h := range ts.History {
		e.write(int64(h.Epoch))
		e.write(math.Float32bits(h.LR))
		e.write(h.TrainLoss)
		e.write(h.TrainAcc)
		e.write(h.ValLoss)
		e.write(h.ValAcc)
	}

	e.write(ts.Batcher.RNG)
	e.write(int64(ts.Batcher.Pos))
	e.write(uint64(len(ts.Batcher.Perm)))
	if e.err == nil {
		perm := make([]byte, 4*len(ts.Batcher.Perm))
		for i, p := range ts.Batcher.Perm {
			binary.LittleEndian.PutUint32(perm[4*i:], uint32(p))
		}
		e.bytes(perm)
	}

	e.str(ts.OptName)
	keys := make([]string, 0, len(ts.Opt))
	for k := range ts.Opt {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.write(uint32(len(keys)))
	for _, k := range keys {
		e.str(k)
		e.floats(ts.Opt[k])
	}

	rngKeys := make([]string, 0, len(ts.LayerRNG))
	for k := range ts.LayerRNG {
		rngKeys = append(rngKeys, k)
	}
	sort.Strings(rngKeys)
	e.write(uint32(len(rngKeys)))
	for _, k := range rngKeys {
		e.str(k)
		e.write(ts.LayerRNG[k])
	}

	e.bool(ts.DropBack != nil)
	if ts.DropBack != nil {
		db := ts.DropBack
		e.bool(db.Frozen)
		e.bool(db.HaveSelection)
		e.write(int64(db.StepCount))
		e.write(db.Regenerations)
		e.write(db.TrackedWrites)
		e.write(uint64(len(db.Mask)))
		if e.err == nil {
			packed := make([]byte, (len(db.Mask)+7)/8)
			for i, m := range db.Mask {
				if m {
					packed[i/8] |= 1 << (i % 8)
				}
			}
			e.bytes(packed)
		}
		e.write(int64(db.Swaps.Steps))
		e.write(db.Swaps.Total)
		e.write(int64(db.Swaps.Max))
		e.write(int64(db.Swaps.Last))
	}
	return e.err
}

// readTrainPayload decodes a TRST section payload.
func readTrainPayload(r io.Reader) (*TrainState, error) {
	e := &er{r: r}
	var format uint32
	e.read(&format)
	if e.err == nil && format != trainStateFormat {
		return nil, fmt.Errorf("checkpoint: unsupported train-state format %d", format)
	}
	ts := &TrainState{}
	ts.Epoch = int(e.i64("epoch", 0, 1<<40))
	ts.Step = int(e.i64("step", 0, 1<<50))
	var lrBits uint32
	e.read(&lrBits)
	ts.LRScale = math.Float32frombits(lrBits)
	var retries int32
	e.read(&retries)
	ts.Retries = int(retries)

	ts.BestEpoch = int(e.i64("best epoch", 0, 1<<40))
	e.read(&ts.BestValAcc)
	ts.SinceBest = int(e.i64("since-best", 0, 1<<40))
	ts.BestParams = e.floats("best-params")
	nBN := e.u32("best-BN", 1<<20)
	for i := uint32(0); i < nBN && e.err == nil; i++ {
		ts.BestBN = append(ts.BestBN, e.floats("best-BN stats"))
	}

	nHist := e.u32("history", 1<<24)
	for i := uint32(0); i < nHist && e.err == nil; i++ {
		var h EpochRecord
		h.Epoch = int(e.i64("history epoch", 0, 1<<40))
		var lr uint32
		e.read(&lr)
		h.LR = math.Float32frombits(lr)
		e.read(&h.TrainLoss)
		e.read(&h.TrainAcc)
		e.read(&h.ValLoss)
		e.read(&h.ValAcc)
		ts.History = append(ts.History, h)
	}

	e.read(&ts.Batcher.RNG)
	ts.Batcher.Pos = int(e.i64("batcher position", 0, 1<<40))
	var nPerm uint64
	e.read(&nPerm)
	if e.err == nil && nPerm > 1<<31 {
		e.err = fmt.Errorf("checkpoint: implausible permutation length %d", nPerm)
	}
	if e.err == nil {
		buf := make([]byte, 4*nPerm)
		if _, err := io.ReadFull(e.r, buf); err != nil {
			e.err = fmt.Errorf("checkpoint: reading permutation: %w", err)
		} else {
			ts.Batcher.Perm = make([]int, nPerm)
			for i := range ts.Batcher.Perm {
				ts.Batcher.Perm[i] = int(binary.LittleEndian.Uint32(buf[4*i:]))
			}
		}
	}

	ts.OptName = e.str()
	nOpt := e.u32("optimizer state", 1<<20)
	for i := uint32(0); i < nOpt && e.err == nil; i++ {
		k := e.str()
		v := e.floats("optimizer slice")
		if e.err == nil {
			if ts.Opt == nil {
				ts.Opt = make(map[string][]float32, nOpt)
			}
			if _, dup := ts.Opt[k]; dup {
				e.err = fmt.Errorf("checkpoint: duplicate optimizer state key %q", k)
				break
			}
			ts.Opt[k] = v
		}
	}

	nRNG := e.u32("layer RNG", 1<<20)
	for i := uint32(0); i < nRNG && e.err == nil; i++ {
		k := e.str()
		var v uint64
		e.read(&v)
		if e.err == nil {
			if ts.LayerRNG == nil {
				ts.LayerRNG = make(map[string]uint64, nRNG)
			}
			if _, dup := ts.LayerRNG[k]; dup {
				e.err = fmt.Errorf("checkpoint: duplicate layer RNG key %q", k)
				break
			}
			ts.LayerRNG[k] = v
		}
	}

	if e.bool() && e.err == nil {
		db := &core.State{}
		db.Frozen = e.bool()
		db.HaveSelection = e.bool()
		db.StepCount = int(e.i64("dropback step count", 0, 1<<50))
		e.read(&db.Regenerations)
		e.read(&db.TrackedWrites)
		var nMask uint64
		e.read(&nMask)
		if e.err == nil && nMask > 1<<31 {
			e.err = fmt.Errorf("checkpoint: implausible mask length %d", nMask)
		}
		if e.err == nil {
			packed := make([]byte, (nMask+7)/8)
			if _, err := io.ReadFull(e.r, packed); err != nil {
				e.err = fmt.Errorf("checkpoint: reading mask: %w", err)
			} else {
				db.Mask = make([]bool, nMask)
				for i := range db.Mask {
					db.Mask[i] = packed[i/8]&(1<<(i%8)) != 0
				}
			}
		}
		db.Swaps.Steps = int(e.i64("swap steps", 0, 1<<50))
		db.Swaps.Total = e.i64("swap total", 0, 1<<62)
		db.Swaps.Max = int(e.i64("swap max", 0, 1<<40))
		db.Swaps.Last = int(e.i64("swap last", 0, 1<<40))
		ts.DropBack = db
	}
	if e.err != nil {
		return nil, e.err
	}
	return ts, nil
}
