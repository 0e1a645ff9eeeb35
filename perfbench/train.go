package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dropback"
	"dropback/internal/dist"
	"dropback/internal/telemetry"
)

// The training task all three training workloads share: MNIST-100-100 under
// DropBack at a 10% budget, so every execution path must reach the same
// accuracy and any difference between workloads is execution speed.
const (
	trainSamples = 3200 // 100 full minibatches: every dist step ships 16+16 rows
	valSamples   = 1000
	trainBudget  = 8961 // 10% of MNIST-100-100's 89,610 weights
	trainBatch   = 32
	trainEpochs  = 4
	// freezeAfter is TrainConfig.FreezeAfterEpoch (0-based): epochs 1-2 run
	// with a live tracked set, epochs 3-4 frozen.
	freezeAfter   = 1
	lastLiveEpoch = freezeAfter + 1
	// targetEpoch is the 1-based epoch whose validation accuracy, in the
	// run's first job, is the target every job's time_to_target_s is
	// measured to: the end of the live phase, mid-run.
	targetEpoch = 2
	// minValAcc is a floor every job's best validation accuracy must clear;
	// below it the model did not learn and the timing is meaningless.
	minValAcc = 0.8
)

type executor int

const (
	execDense executor = iota
	execSparse
	execDist2
)

func ranksOf(ex executor) int {
	if ex == execDist2 {
		return 2
	}
	return 1
}

type trainInputs struct{ train, val *dropback.Dataset }

// genData builds the workload's inputs from its seed.
func genData(seed uint64) trainInputs {
	train, val := dropback.MNISTLike(trainSamples+valSamples, seed).Flatten().Split(trainSamples)
	return trainInputs{train: train, val: val}
}

// job is one complete training run (TrainE to the last epoch).
type job struct {
	res *dropback.Result
	// epochAt is the time from TrainE start to each epoch's Progress call.
	epochAt []time.Duration
	wall    time.Duration
	// sentPerEpoch is rank 0's bytes written to its peer during each epoch
	// (train-dist2 only), counted by a connection wrapper.
	sentPerEpoch []int64
}

func trainConfig(seed uint64) dropback.TrainConfig {
	return dropback.TrainConfig{
		Method:             dropback.MethodDropBack,
		Budget:             trainBudget,
		Epochs:             trainEpochs,
		BatchSize:          trainBatch,
		Seed:               seed,
		FreezeAfterEpoch:   freezeAfter,
		DisableSwapHistory: true,
	}
}

// trainOnce runs one job on the given executor; rec (nil for untraced runs)
// receives rank 0's telemetry.
func trainOnce(ex executor, seed uint64, in trainInputs, rec *traceRecorder) (job, error) {
	var j job
	cfg := trainConfig(seed)
	if rec != nil {
		cfg.Telemetry = rec
	}
	cfg.SparseTrain = ex == execSparse
	models := make([]*dropback.Model, ranksOf(ex))
	for i := range models {
		models[i] = dropback.MNIST100100(seed)
	}
	var sent atomic.Int64
	var lastSent int64
	start := time.Now()
	cfg.Progress = func(string) {
		j.epochAt = append(j.epochAt, time.Since(start))
		if ex == execDist2 {
			s := sent.Load()
			j.sentPerEpoch = append(j.sentPerEpoch, s-lastSent)
			lastSent = s
		}
	}
	if ex != execDist2 {
		res, err := dropback.TrainE(models[0], in.train, in.val, cfg)
		j.wall = time.Since(start)
		j.res = res
		return j, err
	}

	// Two ranks in this process over loopback TCP, one goroutine each.
	const world = 2
	lns := make([]net.Listener, world)
	addrs := make([]string, world)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:r] {
				l.Close()
			}
			return j, fmt.Errorf("dist listener: %w", err)
		}
		lns[r], addrs[r] = ln, ln.Addr().String()
	}
	results := make([]*dropback.Result, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		c := cfg
		c.Dist = &dist.Config{Rank: r, Peers: addrs, Listener: lns[r], ConnectTimeout: 30 * time.Second, StepTimeout: 60 * time.Second}
		if r == 0 {
			c.Dist.WrapConn = func(_ int, conn net.Conn) net.Conn { return &countingConn{Conn: conn, sent: &sent} }
		} else {
			c.Progress, c.Telemetry = nil, nil
		}
		wg.Add(1)
		go func(r int, c dropback.TrainConfig) {
			defer wg.Done()
			defer lns[r].Close()
			results[r], errs[r] = dropback.TrainE(models[r], in.train, in.val, c)
		}(r, c)
	}
	wg.Wait()
	j.wall = time.Since(start)
	j.res = results[0]
	if err := errors.Join(errs...); err != nil {
		return j, err
	}
	if !sameHistory(results[0].History, results[1].History) {
		return j, fmt.Errorf("dist ranks disagree: rank 0 history %v, rank 1 %v", results[0].History, results[1].History)
	}
	return j, nil
}

// countingConn counts the bytes a rank writes to its peer.
type countingConn struct {
	net.Conn
	sent *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent.Add(int64(n))
	return n, err
}

func sameHistory(a, b []dropback.EpochStats) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkJob applies every output check to one job and reports whether the
// job completed, so its timings can be used. ref is the run's first job (nil
// for the first itself): all jobs of a run are the same computation and must
// agree exactly.
func checkJob(r *report, ex executor, j job, err error, ref *job) bool {
	if err != nil {
		r.check(false, "training: %v", err)
		return false
	}
	res := j.res
	ok := !res.Diverged && len(res.History) == trainEpochs && len(j.epochAt) == trainEpochs && res.BestValAcc >= minValAcc
	r.check(ok, "training job: diverged=%v epochs=%d best_val_acc=%.4f (floor %.2f)", res.Diverged, len(res.History), res.BestValAcc, minValAcc)
	if !ok {
		return false
	}
	if ref == nil {
		ref = &j
	} else {
		r.check(sameHistory(ref.res.History, res.History), "training job history differs from the run's first job")
	}
	if _, ok := timeToTarget(j, target(*ref)); !ok {
		r.check(false, "training job never reached the target accuracy %.4f", target(*ref))
	}
	if ex == execDist2 {
		// Frozen steps ship exactly k tracked values per sample, no indices.
		want := int64(dist.StepFrameBytes(trainBatch/2, trainBudget)) * int64(trainSamples/trainBatch)
		for e := lastLiveEpoch; e < trainEpochs; e++ {
			r.check(j.sentPerEpoch[e] == want, "dist frozen epoch %d: rank 0 sent %d B, want %d B (StepFrameBytes(%d, %d) per step)",
				e+1, j.sentPerEpoch[e], want, trainBatch/2, trainBudget)
		}
	}
	return true
}

// target is the validation accuracy the job reached at targetEpoch.
func target(j job) float64 { return j.res.History[targetEpoch-1].ValAcc }

// timeToTarget is the time from TrainE start to the Progress call of the
// first epoch whose validation accuracy reaches acc.
func timeToTarget(j job, acc float64) (time.Duration, bool) {
	for i, h := range j.res.History {
		if h.ValAcc >= acc && i < len(j.epochAt) {
			return j.epochAt[i], true
		}
	}
	return 0, false
}

// runTrain runs one training workload: whole training jobs until the
// measurement time is spent (at least one), with set-up repeated between
// them. Traced runs alternate untraced jobs, which give the tracing
// overhead's baseline and the allocation figures, with traced ones.
func runTrain(o options, r *report, ex executor) error {
	var in trainInputs
	var gens []float64
	setup := setupTimer{setup: func() error {
		t0 := time.Now()
		in = genData(o.seed)
		gens = append(gens, since(t0))
		for n := 0; n < ranksOf(ex); n++ {
			_ = dropback.MNIST100100(o.seed)
		}
		return nil
	}}

	var jobs []job
	var recs []*traceRecorder
	// Per job of a traced run: wall time of untraced and traced jobs, and the
	// allocation figures of the untraced ones.
	var untracedWall, tracedWall, allocPerStep, gcCycles []float64
	steps := float64(trainEpochs * trainSamples / trainBatch)
	start := time.Now()
	for {
		if err := setup.due(time.Since(start) - setup.spent); err != nil {
			return err
		}
		// A traced run alternates untraced and traced jobs, so the tracing
		// overhead compares jobs that ran through the same slow windows.
		traced := o.traced && len(jobs)%2 == 1
		var rec *traceRecorder
		if traced {
			rec = newTraceRecorder(lastLiveEpoch)
		}
		var ms0, ms1 runtime.MemStats
		if o.traced && !traced {
			runtime.ReadMemStats(&ms0)
		}
		j, err := trainOnce(ex, o.seed, in, rec)
		if o.traced && !traced {
			runtime.ReadMemStats(&ms1)
		}
		var ref *job
		if len(jobs) > 0 {
			ref = &jobs[0]
		}
		if !checkJob(r, ex, j, err, ref) {
			return nil
		}
		jobs = append(jobs, j)
		switch {
		case traced:
			recs = append(recs, rec)
			tracedWall = append(tracedWall, j.wall.Seconds())
		case o.traced:
			untracedWall = append(untracedWall, j.wall.Seconds())
			allocPerStep = append(allocPerStep, float64(ms1.TotalAlloc-ms0.TotalAlloc)/steps)
			gcCycles = append(gcCycles, float64(ms1.NumGC-ms0.NumGC))
		}
		el := (time.Since(start) - setup.spent).Seconds()
		if el+0.5*j.wall.Seconds() > o.seconds && (!o.traced || len(recs) > 0) {
			break
		}
	}
	setupSecs, err := setup.finish()
	if err != nil {
		return err
	}
	r.set("setup_s", setupSecs)
	r.set("data.gen_s", median(gens))

	if rss, err := peakRSSMB(); err == nil {
		r.set("peak_rss_mb", rss)
	} else {
		r.check(false, "peak RSS: %v", err)
	}
	acc := target(jobs[0])
	var ttt []float64
	var epochDur [2][]float64
	for _, j := range jobs {
		if d, ok := timeToTarget(j, acc); ok {
			ttt = append(ttt, d.Seconds())
		}
		prev := time.Duration(0)
		for e, at := range j.epochAt {
			ph := live
			if e+1 > lastLiveEpoch {
				ph = frozen
			}
			epochDur[ph] = append(epochDur[ph], (at - prev).Seconds())
			prev = at
		}
	}
	r.set("time_to_target_s", median(ttt))
	// A job's duration estimated from the median epoch of each phase, so a
	// few seconds of a slowed machine move one epoch, not the figure.
	jobSecs := float64(lastLiveEpoch)*median(epochDur[live]) + float64(trainEpochs-lastLiveEpoch)*median(epochDur[frozen])
	r.set("samples_per_s", float64(trainEpochs*trainSamples)/jobSecs)
	r.set("val_acc", jobs[0].res.BestValAcc)
	fmt.Printf("train jobs=%d target_acc=%.4f best_val_acc=%.4f time_to_target_s=%.3f live_epoch_s=%.3f frozen_epoch_s=%.3f\n",
		len(jobs), acc, jobs[0].res.BestValAcc, ttt, epochDur[live], epochDur[frozen])

	if !o.traced {
		return nil
	}
	r.set("runtime.alloc_bytes_per_step", median(allocPerStep))
	r.set("runtime.gc_cycles", median(gcCycles))
	// Traced over untraced throughput: below 1 by the tracing overhead.
	r.set("telemetry.overhead_ratio", median(untracedWall)/median(tracedWall))
	traceMetrics(r, recs)
	if ex == execDist2 {
		want := float64(dist.StepFrameBytes(trainBatch/2, trainBudget))
		got := r.values["dist.bytes_per_step.frozen"]
		r.check(got == want, "dist.bytes_per_step.frozen = %v, want StepFrameBytes(%d, %d) = %v", got, trainBatch/2, trainBudget, want)
	}
	return nil
}

// traceMetrics reduces the traced jobs' recorders to the per-layer metrics.
func traceMetrics(r *report, recs []*traceRecorder) {
	phases := [2]*phaseStats{newPhaseStats(), newPhaseStats()}
	var evalTop time.Duration
	var evalPasses int
	var regens, writes, swaps, wsHits, wsMisses float64
	var regensFrozen float64
	regensOK := true
	for _, rec := range recs {
		for _, a := range rec.anomalies {
			r.check(false, "trace: %s", a)
		}
		for i, ph := range rec.phases {
			phases[i].add(ph)
		}
		evalTop += rec.evalTop
		evalPasses += rec.evalPasses
		if n := len(rec.epochGauges); n > 0 {
			last := rec.epochGauges[n-1]
			regens += last["dropback/regenerations"]
			writes += last["dropback/tracked_writes"]
			// The workspace counters are process-wide totals from 0, so the
			// last job's last snapshot covers every job, cold start included.
			wsHits, wsMisses = last[telemetry.GaugeWorkspaceHits], last[telemetry.GaugeWorkspaceMisses]
			if v, ok := last["dropback/weight_state_bytes"]; ok {
				r.set("core.weight_state_bytes", v)
			} else {
				r.markAbsent("core.weight_state_bytes", "dense DropBack keeps full tensors; only the sparse engine reports weight state")
			}
		}
		d, ok := rec.gaugeDelta("dropback/regenerations", frozen)
		regensFrozen += d
		regensOK = regensOK && ok
	}
	steps := phases[live].steps + phases[frozen].steps
	if steps == 0 {
		r.check(false, "traced run recorded no training steps")
		return
	}
	for i := range phases {
		swaps += phases[i].counters["dropback/swaps"]
	}

	spanned := phases[live].spanned + phases[frozen].spanned
	if spanned == 0 {
		why := "no training-step layer spans: TrainE instruments only the model's own layers, and this executor trains through an uninstrumented mirror"
		for _, s := range perLayer {
			if strings.HasPrefix(s.name, "nn.fwd_self_ms.") || strings.HasPrefix(s.name, "nn.bwd_self_ms.") || strings.HasPrefix(s.name, "core.update_ms.") {
				r.markAbsent(s.name, why)
			}
		}
	} else {
		for p, prefix := range [2]string{"nn.fwd_self_ms.", "nn.bwd_self_ms."} {
			for n := range phases[live].self[p] {
				total := phases[live].self[p][n] + phases[frozen].self[p][n]
				r.set(prefix+layerName(n), float64(total)/1e6/float64(steps))
			}
		}
		for i, name := range phaseNames {
			if phases[i].steps > 0 {
				r.set("core.update_ms."+name, float64(phases[i].update)/1e6/float64(phases[i].steps))
			}
		}
	}
	if evalPasses > 0 {
		r.set("nn.eval_fwd_ms", float64(evalTop)/1e6/float64(evalPasses))
	}
	var all []float64
	for i, name := range phaseNames {
		lat := ms(phases[i].latency)
		all = append(all, lat...)
		if len(lat) > 0 {
			r.set("trainer.step_ms_p50."+name, median(lat))
		}
		if _, ok := phases[i].counters[telemetry.CounterDistBytesSent]; ok && phases[i].steps > 0 {
			r.set("dist.bytes_per_step."+name, phases[i].counters[telemetry.CounterDistBytesSent]/float64(phases[i].steps))
			var latSum time.Duration
			for _, l := range phases[i].latency {
				latSum += l
			}
			r.set("dist.fold_wait_share."+name, phases[i].counters[telemetry.CounterDistFoldWaitSeconds]/latSum.Seconds())
		}
	}
	if v, ok := percentile(all, 0.95); ok {
		r.set("trainer.step_ms_p95", v)
	} else {
		r.markAbsent("trainer.step_ms_p95", fmt.Sprintf("fewer than %d steps beyond p95", minBeyond))
	}
	r.set("core.swaps_per_step", swaps/float64(steps))
	r.set("core.regenerations_per_step", regens/float64(steps))
	r.set("core.tracked_writes_per_step", writes/float64(steps))
	if wsHits+wsMisses > 0 {
		r.set("tensor.workspace_hit_ratio", wsHits/(wsHits+wsMisses))
	}
	if _, sparseEngine := r.values["core.weight_state_bytes"]; sparseEngine && regensOK && phases[frozen].steps > 0 && regensFrozen > 0 {
		perStep := regensFrozen / float64(phases[frozen].steps)
		r.set("sparsenn.step_ns_per_regen.frozen", median(ms(phases[frozen].latency))*1e6/perStep)
	}
}
