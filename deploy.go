package dropback

import (
	"io"
	"net/http"

	"dropback/internal/checkpoint"
	"dropback/internal/quant"
	"dropback/internal/serve"
	"dropback/internal/sparse"
)

// SparseArtifact is the deployment form of a DropBack-trained model: the
// tracked weight values with their flat indices, the model seed, and batch
// normalization running statistics. Applied to a freshly constructed model
// (same constructor, same seed) it reproduces inference bit-exactly while
// storing only the deviating weights.
type SparseArtifact = sparse.Artifact

// QuantizedArtifact is a SparseArtifact whose stored values are uniformly
// quantized (§5 of the paper: quantization is orthogonal to DropBack and
// the two combine).
type QuantizedArtifact = quant.Artifact

// CompressSparse exports a trained model as a sparse artifact. A weight is
// stored iff its value differs from its regenerated initialization, so for
// a DropBack-trained model the artifact holds at most the budget's worth of
// weights.
func CompressSparse(m *Model) *SparseArtifact { return sparse.Compress(m) }

// QuantizeSparse further compresses a sparse artifact to b-bit weight codes.
// bits outside 1..8 is a caller error reported as an error value (not a
// panic), so flag values can flow here unvalidated.
func QuantizeSparse(a *SparseArtifact, bits int) (*QuantizedArtifact, error) {
	return quant.Compress(a, bits)
}

// ValidateQuantBits reports whether bits is a legal quantization width
// (1..8); use it to validate flag or request values before quantizing.
func ValidateQuantBits(bits int) error { return quant.ValidateBits(bits) }

// SparsePlan is the compiled sparse-native execution form of an artifact:
// the prototype model with its Linear and Conv2D weights on CSR storage
// holding only the tracked entries. A plan is immutable and shared by every
// executor built from it — one copy of the weight state per process.
type SparsePlan = sparse.Plan

// SparseExecutor runs inference straight off a SparsePlan through a replica
// of its model, regenerating untracked weights inside the kernel loops
// instead of densifying. Outputs are bit-identical to applying the artifact
// to a dense model and running its forward pass. Like a Model, an executor
// is single-goroutine-only.
type SparseExecutor = sparse.Executor

// ServeReplica is the serving pool's replica interface, implemented by both
// the dense model wrapper and SparseExecutor.
type ServeReplica = serve.Replica

// CompileSparse compiles an artifact against a freshly constructed
// prototype model (same constructor and seed as training) into a SparsePlan.
// The plan takes the prototype over: do not use it afterwards.
func CompileSparse(m *Model, a *SparseArtifact) (*SparsePlan, error) {
	return sparse.Compile(m, a)
}

// NewSparseExecutor builds an inference executor over a shared plan; the
// per-executor cost is activation scratch only.
func NewSparseExecutor(p *SparsePlan) *SparseExecutor { return sparse.NewExecutor(p) }

// SaveSparse writes a sparse artifact to a file.
func SaveSparse(path string, a *SparseArtifact) error { return sparse.Save(path, a) }

// LoadSparse reads a sparse artifact file.
func LoadSparse(path string) (*SparseArtifact, error) { return sparse.Load(path) }

// ReadSparse reads a sparse artifact from a stream — the hot-reload path,
// where artifact bytes arrive over HTTP rather than from a file. The format's
// checksum trailer is verified, so torn or bit-flipped payloads are rejected.
func ReadSparse(r io.Reader) (*SparseArtifact, error) { return sparse.Read(r) }

// NewModelReplica wraps a dense model as a serving-pool replica, for
// ServeConfig.NewSparseReplica and for Compile callbacks that rebuild dense
// pools from artifact bytes.
func NewModelReplica(m *Model) ServeReplica { return serve.ModelReplica{M: m} }

// SaveCheckpoint writes a dense checkpoint (all weights + batch norm
// statistics) of the model to a file — the training save/resume path. The
// write is atomic: a crash mid-save leaves any previous file at path intact.
func SaveCheckpoint(path string, m *Model) error { return checkpoint.Save(path, m) }

// LoadCheckpoint reads a dense checkpoint file into a model of the same
// architecture.
func LoadCheckpoint(path string, m *Model) error { return checkpoint.Load(path, m) }

// TrainState is the resumable training state a managed checkpoint carries
// beyond the weights: epoch/step counters, batch order, optimizer and
// DropBack state, best-epoch tracking, and the divergence-recovery backoff.
type TrainState = checkpoint.TrainState

// CheckpointManager maintains a rotating directory of crash-safe training
// checkpoints and loads the newest valid one, skipping corrupt files.
type CheckpointManager = checkpoint.Manager

// SaveTrainCheckpoint writes a dense checkpoint together with resumable
// training state (pass the TrainState from a previous LoadTrainCheckpoint,
// or capture one via TrainConfig.Checkpoint's managed saves). ts may be nil
// for a weights-only checkpoint.
func SaveTrainCheckpoint(path string, m *Model, ts *TrainState) error {
	return checkpoint.SaveTrain(path, m, ts)
}

// LoadTrainCheckpoint reads a checkpoint into the model and returns the
// embedded training state, if any (nil for weights-only files). Feed the state to TrainConfig.ResumeFrom to continue the run.
func LoadTrainCheckpoint(path string, m *Model) (*TrainState, error) {
	return checkpoint.LoadTrain(path, m)
}

// ServeConfig configures an inference Server: the replica constructor, the
// per-sample input shape, pool size, micro-batching limits, queue bound,
// and an optional telemetry recorder.
type ServeConfig = serve.Config

// Server serves predictions from a pool of model replicas through a
// dynamic micro-batcher: concurrent Predict calls are coalesced into one
// forward pass (up to MaxBatch requests or MaxWait of waiting) and fanned
// through a free replica. The bounded queue rejects overflow with
// ErrServerOverloaded, and Close drains gracefully. See internal/serve for
// the full design.
type Server = serve.Server

// ServerStats is a snapshot of a Server's counters: request/reject/expire
// totals, batch-size distribution, and end-to-end latency quantiles.
type ServerStats = serve.Stats

// Prediction is one served inference result.
type Prediction = serve.Prediction

// ServeHandlerConfig configures the HTTP front end of a Server.
type ServeHandlerConfig = serve.HandlerConfig

// ServeTier is a request priority class. Under overload the server sheds
// lower tiers first, so interactive traffic keeps its floor while batch and
// best-effort work absorbs the loss.
type ServeTier = serve.Tier

// The priority tiers, highest first. Requests carry their tier in the
// X-Priority header (ServeTierHeader); absent means interactive.
const (
	ServeTierInteractive = serve.TierInteractive
	ServeTierBatch       = serve.TierBatch
	ServeTierBestEffort  = serve.TierBestEffort
)

// ServeTierHeader is the HTTP request header naming the priority tier.
const ServeTierHeader = serve.TierHeader

// ParseServeTier maps a wire name ("interactive", "batch", "best-effort";
// empty means interactive) to its tier.
func ParseServeTier(name string) (ServeTier, error) { return serve.ParseTier(name) }

// ReloadOptions controls how a hot-reloaded version enters service (full
// atomic swap or canary share with automatic rollback/promotion).
type ReloadOptions = serve.ReloadOptions

// ReloadResult describes a verified hot reload: the new version id, artifact
// checksum, and whether it swapped in immediately or entered as a canary.
type ReloadResult = serve.ReloadResult

// ServeTierStats and ServeVersionStats are the per-tier and per-version
// slices of a ServerStats snapshot.
type (
	ServeTierStats    = serve.TierStats
	ServeVersionStats = serve.VersionStats
)

// Serving errors, mapped to HTTP status codes by the serve handler.
var (
	// ErrServerOverloaded reports a shed request (HTTP 429 + Retry-After).
	ErrServerOverloaded = serve.ErrOverloaded
	// ErrServerDraining reports a server shutting down (HTTP 503).
	ErrServerDraining = serve.ErrDraining
	// ErrReloadUnsupported reports a reload without a Compile hook (501).
	ErrReloadUnsupported = serve.ErrReloadUnsupported
	// ErrReloadInProgress reports a concurrent reload attempt (409).
	ErrReloadInProgress = serve.ErrReloadInProgress
	// ErrBadArtifact reports a reload artifact that failed verification; the
	// previous version keeps serving untouched (422).
	ErrBadArtifact = serve.ErrBadArtifact
)

// NewServer builds the replica pool (calling cfg.NewSparseReplica once per
// replica — cheap for artifact-seeded models, which is the paper's
// deployment point) and starts the micro-batcher.
func NewServer(cfg ServeConfig) (*Server, error) { return serve.New(cfg) }

// NewServeHandler exposes a Server over HTTP: POST /v1/predict plus
// healthz/readyz/statsz endpoints. See serve.NewHandler for the error
// mapping.
func NewServeHandler(s *Server, hc ServeHandlerConfig) http.Handler {
	return serve.NewHandler(s, hc)
}
