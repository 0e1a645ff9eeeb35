package serve

import (
	"context"
	"fmt"
	"sync"

	"dropback/internal/nn"
	"dropback/internal/tensor"
)

// Replica is one exclusively-owned inference engine. Implementations are
// single-goroutine-only (they own mutable activation scratch), which is why
// they live in a Pool: a checked-out replica belongs to one batch at a time.
//
// Any single-goroutine inference engine can be one. ModelReplica wraps a
// densified *nn.Model with private weights; sparse.Executor runs a replica
// (nn.Model.Replica) of a compiled plan's model, straight off the
// compressed artifact, with all weight state shared across replicas.
type Replica interface {
	// Infer runs one forward pass in inference mode. The returned tensor may
	// be replica-owned scratch, valid until the next Infer call.
	Infer(x *tensor.Tensor) *tensor.Tensor
	// WeightBytes reports the replica's resident weight footprint, split
	// into bytes shared with every other replica built the same way (one
	// copy per process) and bytes private to this replica.
	WeightBytes() (shared, private int)
}

// ModelReplica adapts a dense *nn.Model to the Replica interface. Every
// weight is private: densifying an artifact materializes a full float32 copy
// of the parameter vector per replica.
type ModelReplica struct {
	M *nn.Model
}

// Infer runs the model's forward pass in inference mode.
func (r ModelReplica) Infer(x *tensor.Tensor) *tensor.Tensor {
	return r.M.Net.Forward(x, false)
}

// WeightBytes reports the dense parameter footprint, all of it per-replica.
func (r ModelReplica) WeightBytes() (shared, private int) {
	return 0, 4 * r.M.Set.Total()
}

// Pool is a fixed set of interchangeable model replicas. It exists because a
// replica is single-goroutine-only (layers own mutable workspaces that
// every forward pass overwrites — see the nn.Layer contract): a replica
// checked out of the pool is exclusively owned until released, so any number
// of goroutines can run inference concurrently as long as each uses its own
// checked-out replica.
//
// Replicas come from a constructor, never from copying one another. A
// sparse replica (sparse.Executor) runs an nn.Model.Replica of one compiled
// plan's model: every replica shares the plan's weight storage and owns only
// its layers' activation scratch. A dense ModelReplica is a model built with
// the same constructor and seed and the artifact applied, with every weight
// private.
type Pool struct {
	replicas chan Replica
	size     int
	shared   int // weight bytes shared across replicas (one copy)
	private  int // weight bytes resident per replica
}

// NewPool builds n replicas with build and returns the pool. Every replica
// must compute bit-identical outputs (one shared plan, or one constructor,
// seed and artifact) so that which replica serves a request can never change
// the answer.
//
// Replicas are built concurrently, so cold-start latency is the slowest
// single build rather than the sum of all of them: a sparse build makes a
// fresh layer tree over the shared plan, a dense one regenerates every
// weight and overlays the tracked ones.
func NewPool(n int, build func() (Replica, error)) (*Pool, error) {
	if n <= 0 {
		return nil, fmt.Errorf("serve: pool size must be positive, got %d", n)
	}
	reps := make([]Replica, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = build()
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return nil, fmt.Errorf("serve: building replica %d of %d: %w", i+1, n, errs[i])
		}
		if reps[i] == nil {
			return nil, fmt.Errorf("serve: replica constructor returned nil replica")
		}
	}
	p := &Pool{replicas: make(chan Replica, n), size: n}
	p.shared, p.private = reps[0].WeightBytes()
	for _, r := range reps {
		p.replicas <- r
	}
	return p, nil
}

// Acquire checks a replica out of the pool, blocking until one is free. The
// caller owns it exclusively until Release.
func (p *Pool) Acquire() Replica { return <-p.replicas }

// AcquireCtx checks a replica out of the pool, giving up with ctx.Err() when
// the context ends first. A free replica is preferred over a simultaneously
// done context, so a caller with work to do never fails spuriously.
func (p *Pool) AcquireCtx(ctx context.Context) (Replica, error) {
	select {
	case r := <-p.replicas:
		return r, nil
	default:
	}
	select {
	case r := <-p.replicas:
		return r, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TryAcquire checks a replica out without blocking; ok is false when every
// replica is busy.
func (p *Pool) TryAcquire() (Replica, bool) {
	select {
	case r := <-p.replicas:
		return r, true
	default:
		return nil, false
	}
}

// Release returns a replica to the pool.
func (p *Pool) Release(r Replica) { p.replicas <- r }

// Drain removes every replica from the pool, blocking until all of them have
// been released, and never hands them out again — the teardown path for a
// retired version's pool. Callers must guarantee no further Acquire will be
// attempted (the version pinning protocol in version.go does), otherwise that
// Acquire would block forever.
func (p *Pool) Drain() {
	for i := 0; i < p.size; i++ {
		<-p.replicas
	}
}

// Size returns the number of replicas.
func (p *Pool) Size() int { return p.size }

// Free returns how many replicas are currently idle (observability only;
// the value is stale as soon as it is read).
func (p *Pool) Free() int { return len(p.replicas) }

// WeightBytes reports the pool's resident weight footprint: bytes shared
// across all replicas (one copy per process) and bytes private to each
// replica. Dense pools are all private; sparse pools are all shared.
func (p *Pool) WeightBytes() (shared, privatePerReplica int) {
	return p.shared, p.private
}
