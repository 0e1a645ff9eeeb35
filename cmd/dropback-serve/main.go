// Command dropback-serve turns a sparse deployment artifact into an HTTP
// prediction service. It loads the artifact once, builds a pool of model
// replicas by regenerating every untracked weight from the seed (cheap by
// design — that is the paper's deployment story), and serves concurrent
// requests through a dynamic micro-batcher with bounded-queue backpressure.
//
// Usage:
//
//	dropback-serve -artifact model.dbsp -model mnist100 -seed 1 -addr :8080
//
// Endpoints:
//
//	POST /v1/predict  {"input": [...]} -> {"class", "probs", "batch_size"}
//	POST /v1/reload   hot-swap to a new artifact (bytes in the body, or a
//	                  JSON {"path", "canary_percent"} pointing at a file)
//	GET  /healthz     liveness
//	GET  /readyz      readiness (503 while draining)
//	GET  /statsz      serving counters as JSON
//
// Requests carry an optional X-Priority header (interactive | batch |
// best-effort); under overload the server sheds lower tiers first.
//
// SIGHUP re-reads the -artifact file and hot-swaps to it without dropping
// requests (canary share set by -reload-canary). SIGINT/SIGTERM triggers a
// graceful drain: in-flight and queued requests are answered, new ones get
// 503, then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dropback"
	"dropback/internal/telemetry"
	"dropback/internal/tensor"
)

// slowReplica injects a fixed latency in front of every inference — a
// self-contained chaos knob for rehearsing overload and shedding against a
// real binary without patching the model.
type slowReplica struct {
	r dropback.ServeReplica
	d time.Duration
}

func (s slowReplica) Infer(x *tensor.Tensor) *tensor.Tensor {
	time.Sleep(s.d)
	return s.r.Infer(x)
}

func (s slowReplica) WeightBytes() (shared, private int) { return s.r.WeightBytes() }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run carries the whole server lifecycle so deferred cleanup (telemetry
// flush, listener close) always fires; main wraps it with the only os.Exit.
func run() error {
	var (
		artifact  = flag.String("artifact", "", "path to a .dbsp sparse artifact (required)")
		model     = flag.String("model", "mnist100", "mnist100 | lenet300 | vggs-reduced | wrn-reduced | densenet-reduced")
		seed      = flag.Uint64("seed", 1, "model seed used at training time")
		quantBits = flag.Int("quant-bits", 0, "serve b-bit quantized weights (1..8, 0 = full float artifact)")
		sparseRun = flag.Bool("sparse", false, "serve straight off the compressed artifact: one shared tracked-weight copy, untracked weights regenerated in the kernels")
		addr      = flag.String("addr", ":8080", "HTTP listen address")
		replicas  = flag.Int("replicas", 4, "model replica pool size (max concurrent forward passes)")
		maxBatch  = flag.Int("max-batch", 8, "max requests coalesced into one forward pass")
		maxWait   = flag.Duration("max-wait", time.Millisecond, "max time the batcher waits to fill a batch")
		queue     = flag.Int("queue", 0, "per-tier request queue bound; overflow gets 429 (0 = 16x max-batch)")
		timeout   = flag.Duration("timeout", 2*time.Second, "per-request end-to-end timeout (0 = none)")
		drainWait = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown budget on SIGTERM")
		canary    = flag.Int("reload-canary", 0, "traffic percent routed to a reloaded version before promotion (0 = full atomic swap)")
		slow      = flag.Duration("slow-replica", 0, "inject this much artificial latency per inference (chaos/load testing only)")
		telJSONL  = flag.String("telemetry", "", "write a JSONL stream of serve counters/latency samples to this path")
		telTable  = flag.Bool("telemetry-summary", false, "print the telemetry summary table on shutdown")
	)
	flag.Parse()
	if *artifact == "" {
		return errors.New("missing -artifact")
	}

	_, inputShape, err := dropback.ModelByName(*model, *seed, false)
	if err != nil {
		return err
	}
	// build makes a fresh model; the name was validated above.
	build := func() *dropback.Model {
		m, _, _ := dropback.ModelByName(*model, *seed, false)
		return m
	}

	// prep applies the -quant-bits roundtrip, so hot-reloaded artifacts get
	// exactly the treatment the boot artifact got.
	prep := func(art *dropback.SparseArtifact) (*dropback.SparseArtifact, error) {
		if *quantBits == 0 {
			return art, nil
		}
		qa, err := dropback.QuantizeSparse(art, *quantBits)
		if err != nil {
			return nil, fmt.Errorf("-quant-bits: %w", err)
		}
		fmt.Printf("serving %d-bit quantized weights (%d bytes)\n", *quantBits, qa.StorageBytes())
		return qa.Decompress(), nil
	}
	// replicaFactory compiles an artifact into the pool's replica
	// constructor, honoring -sparse and -slow-replica. Boot and every hot
	// reload go through here, so a reloaded pool is built the same way.
	replicaFactory := func(art *dropback.SparseArtifact) (func() (dropback.ServeReplica, error), error) {
		var factory func() (dropback.ServeReplica, error)
		if *sparseRun {
			plan, err := dropback.CompileSparse(build(), art)
			if err != nil {
				return nil, err
			}
			fmt.Printf("sparse-native: %d tracked weights, %d resident weight bytes shared across replicas (dense would be %d per replica)\n",
				plan.TrackedWeights(), plan.WeightBytes(), plan.DenseWeightBytes())
			factory = func() (dropback.ServeReplica, error) {
				return dropback.NewSparseExecutor(plan), nil
			}
		} else {
			factory = func() (dropback.ServeReplica, error) {
				m := build()
				if err := art.Apply(m); err != nil {
					return nil, err
				}
				return dropback.NewModelReplica(m), nil
			}
		}
		if *slow > 0 {
			inner := factory
			factory = func() (dropback.ServeReplica, error) {
				r, err := inner()
				if err != nil {
					return nil, err
				}
				return slowReplica{r: r, d: *slow}, nil
			}
		}
		return factory, nil
	}

	art, err := dropback.LoadSparse(*artifact)
	if err != nil {
		return err
	}
	fmt.Printf("artifact: %d of %d weights stored (%.1fx compression), %d bytes\n",
		art.StoredWeights(), art.TotalParams, art.CompressionRatio(), art.StorageBytes())
	if art, err = prep(art); err != nil {
		return err
	}
	bootFactory, err := replicaFactory(art)
	if err != nil {
		return err
	}

	var collector *telemetry.Collector
	var telFile *os.File
	if *telJSONL != "" || *telTable {
		opts := telemetry.CollectorOptions{Label: *model + "/serve"}
		if *telJSONL != "" {
			f, err := os.Create(*telJSONL)
			if err != nil {
				return err
			}
			defer f.Close()
			telFile = f
			opts.Sink = f
		}
		collector = telemetry.NewCollector(opts)
	}

	cfg := dropback.ServeConfig{
		InputShape: inputShape,
		Replicas:   *replicas,
		MaxBatch:   *maxBatch,
		MaxWait:    *maxWait,
		QueueDepth: *queue,
	}
	if collector != nil {
		// Assigning a nil *Collector directly would store a typed nil in the
		// Recorder interface field, defeating the server's nil check.
		cfg.Telemetry = collector
	}
	cfg.NewSparseReplica = bootFactory
	cfg.Compile = func(r io.Reader) (func() (dropback.ServeReplica, error), error) {
		art, err := dropback.ReadSparse(r)
		if err != nil {
			return nil, err
		}
		if art, err = prep(art); err != nil {
			return nil, err
		}
		return replicaFactory(art)
	}
	srv, err := dropback.NewServer(cfg)
	if err != nil {
		return err
	}
	st0 := srv.Stats()
	fmt.Printf("pool: %d replicas of %s (seed %d), max batch %d, max wait %v, queue %d, built in %v\n",
		srv.Replicas(), *model, *seed, *maxBatch, *maxWait, st0.QueueCap,
		st0.PoolBuild.Round(time.Microsecond))

	httpSrv := &http.Server{
		Addr: *addr,
		Handler: dropback.NewServeHandler(srv, dropback.ServeHandlerConfig{
			RequestTimeout: *timeout,
			ReloadPath:     *artifact,
		}),
	}

	// SIGHUP hot-swaps to whatever is at -artifact now — the operator
	// retrains, overwrites the file, and kicks the running server.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			res, err := srv.ReloadFile(*artifact, dropback.ReloadOptions{CanaryPercent: *canary})
			switch {
			case err != nil:
				fmt.Fprintf(os.Stderr, "reload (SIGHUP) rejected, still serving previous version: %v\n", err)
			case res.Swapped:
				fmt.Printf("reloaded %s: version %s serving all traffic\n", *artifact, res.Version)
			default:
				fmt.Printf("reloaded %s: version %s canarying %d%% of traffic\n", *artifact, res.Version, res.CanaryPercent)
			}
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	fmt.Printf("listening on %s\n", *addr)

	select {
	case err := <-serveErr:
		srv.Close()
		return err
	case <-ctx.Done():
	}

	fmt.Println("shutdown signal received, draining")
	shCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	// Stop accepting connections and wait for in-flight handlers, then
	// drain the batcher (queued requests are answered, not dropped).
	shutdownErr := httpSrv.Shutdown(shCtx)
	srv.Close()

	st := srv.Stats()
	fmt.Printf("served %d requests in %d batches (mean batch %.2f), %d rejected, %d expired, latency p50 %v p95 %v\n",
		st.Requests, st.Batches, st.MeanBatchSize, st.Rejected, st.Expired,
		st.LatencyP50.Round(time.Microsecond), st.LatencyP95.Round(time.Microsecond))
	if st.Reloads+st.Rollbacks+st.Promotions > 0 {
		fmt.Printf("versions: %d reloads, %d promotions, %d rollbacks, final stable %s\n",
			st.Reloads, st.Promotions, st.Rollbacks, st.Stable.ID)
	}
	for _, tier := range st.Tiers {
		if tier.Shed > 0 {
			fmt.Printf("tier %s: %d served, %d shed\n", tier.Tier, tier.Requests, tier.Shed)
		}
	}
	if collector != nil {
		if err := collector.Flush(); err != nil {
			return err
		}
		if telFile != nil {
			if err := telFile.Close(); err != nil {
				return err
			}
			fmt.Printf("telemetry stream written to %s\n", *telJSONL)
		}
		if *telTable {
			collector.WriteSummary(os.Stdout)
		}
	}
	return shutdownErr
}
