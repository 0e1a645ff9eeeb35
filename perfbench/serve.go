package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"dropback"
	"dropback/internal/tensor"
)

// The serving workload: a DropBack artifact frozen at a 5% budget, served by
// sparse replicas that share one compiled plan.
const (
	serveBudget   = 4480 // 5% of MNIST-100-100's 89,610 weights
	serveEpochs   = 4
	serveMaxBatch = 8
	// Open-loop rates, both well below the capacity the ladder measures
	// (README.md gives the figures). At lowRate a request arrives every
	// 6.7 ms, about three batch-1 inference times, so batches are ~1 and
	// every request pays a full weight regeneration; at highRate one
	// arrives every 1.25 ms, faster than a replica finishes a batch, so
	// requests queue and share a batch and its regeneration. Each phase
	// sends enough requests for its p99 to have ten samples beyond it.
	lowRate      = 150.0
	lowRequests  = 1050
	highRate     = 800.0
	highRequests = 2400
	maxInFlight  = 512
	// closedClients keeps every replica busy and lets batches form, so the
	// closed loop measures capacity rather than one request's round trip.
	closedClients = 4 * serveMaxBatch
)

// The capacity ladder: fixed open-loop rates, tried in increasing order. A
// rung passes when no request is refused or fails, its p99 latency is
// within ladderP99LimitMS, and responses keep pace with arrivals (see
// rung.passes). The ladder stops at the first rung that fails twice.
var ladderRates = []float64{400, 800, 1200, 1600, 2000, 2400, 2800, 3200, 3600, 4000}

const (
	ladderP99LimitMS = 50.0
	// ladderRungSeconds is each rung's sending time; a rung sends at least
	// 1,000 requests so its p99 has ten samples beyond it.
	ladderRungSeconds = 1.0
	ladderMinRequests = 1000
	// ladderMinPace is the least share of the offered rate the completions
	// must reach: below it the backlog grows over the rung.
	ladderMinPace = 0.95
)

// serveInputs is everything set-up produces: the validation requests, the
// compiled plan and the dense reference classes outputs are checked against.
type serveInputs struct {
	val      *dropback.Dataset
	plan     *dropback.SparsePlan
	dense    *dropback.Model // fresh model with the artifact applied
	refClass []int           // dense model's class for each validation row
	bodies   [][]byte        // encoded /v1/predict request per validation row
	canon    []int           // first validation row with the same input
	rowOf    map[uint64]int  // input-row hash -> first row with that input
	artBytes int
}

// trainServeModel trains the model the artifact is cut from. It runs once per
// run, before set-up: like the seed, the trained model is an input.
func trainServeModel(seed uint64) (*dropback.Model, error) {
	in := genData(seed)
	m := dropback.MNIST100100(seed)
	res, err := dropback.TrainE(m, in.train, in.val, dropback.TrainConfig{
		Method: dropback.MethodDropBack, Budget: serveBudget, Epochs: serveEpochs, BatchSize: trainBatch,
		Seed: seed, FreezeAfterEpoch: serveEpochs/2 - 1, DisableSwapHistory: true,
	})
	if err != nil {
		return nil, fmt.Errorf("training the serving artifact: %w", err)
	}
	if res.Diverged {
		return nil, fmt.Errorf("training the serving artifact diverged")
	}
	return m, nil
}

// setupServe generates the data, compresses the trained model into the
// artifact, compiles it, and computes the dense reference predictions.
func setupServe(seed uint64, trained *dropback.Model) (serveInputs, time.Duration, time.Duration, error) {
	var s serveInputs
	t0 := time.Now()
	in := genData(seed)
	gen := time.Since(t0)
	s.val = in.val
	art := dropback.CompressSparse(trained)
	var cw countingWriter
	if err := art.Write(&cw); err != nil {
		return s, 0, 0, fmt.Errorf("encoding the artifact: %w", err)
	}
	s.artBytes = cw.n
	tc := time.Now()
	var err error
	s.plan, err = dropback.CompileSparse(dropback.MNIST100100(seed), art)
	compile := time.Since(tc)
	if err != nil {
		return s, 0, 0, fmt.Errorf("compiling the artifact: %w", err)
	}
	s.dense = dropback.MNIST100100(seed)
	if err := art.Apply(s.dense); err != nil {
		return s, 0, 0, fmt.Errorf("applying the artifact: %w", err)
	}
	x, _ := s.val.Batch(0, s.val.Len())
	s.refClass = argmaxRows(dropback.NewModelReplica(s.dense).Infer(x))
	width := x.Len() / s.val.Len()
	s.canon, s.rowOf = canonicalRows(x.Data, s.val.Len())
	s.bodies = make([][]byte, s.val.Len())
	for i := range s.bodies {
		b, err := json.Marshal(struct {
			Input []float32 `json:"input"`
		}{x.Data[i*width : (i+1)*width]})
		if err != nil {
			return s, 0, 0, err
		}
		s.bodies[i] = b
	}
	return s, gen, compile, nil
}

// canonicalRows maps every row of data (n equal-length rows) to the first
// row with the same values, and each distinct row's hash to that first row.
// A generated dataset can repeat a sample; a batch carrying it is the same
// work whichever request sent it, so the replica tap and the request join
// identify rows by content.
func canonicalRows(data []float32, n int) (canon []int, rowOf map[uint64]int) {
	w := len(data) / n
	canon = make([]int, n)
	rowOf = make(map[uint64]int, n)
	for i := range canon {
		h := rowHash(data[i*w : (i+1)*w])
		first, ok := rowOf[h]
		if !ok {
			first = i
			rowOf[h] = i
		}
		canon[i] = first
	}
	return canon, rowOf
}

type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

func argmaxRows(y *tensor.Tensor) []int {
	n := y.Shape[0]
	w := y.Len() / n
	out := make([]int, n)
	for i := range out {
		best := 0
		for c := 1; c < w; c++ {
			if y.Data[i*w+c] > y.Data[i*w+best] {
				best = c
			}
		}
		out[i] = best
	}
	return out
}

// rowHash identifies a validation row from its input values, so the replica
// tap can tell which requests a batch carried without any side channel.
func rowHash(row []float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range row {
		u := math.Float32bits(v)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// batchRec is one replica Infer call: when it ran and which validation rows
// (-1 for an unknown input) made up the batch.
type batchRec struct {
	start, end time.Time
	rows       []int
}

// batchTap collects the batch records of every tapped replica.
type batchTap struct {
	rowOf   map[uint64]int
	mu      sync.Mutex
	batches []batchRec
}

// tapReplica wraps a serving replica and records each Infer call.
type tapReplica struct {
	inner dropback.ServeReplica
	tap   *batchTap
}

func (t *tapReplica) Infer(x *tensor.Tensor) *tensor.Tensor {
	n := x.Shape[0]
	w := x.Len() / n
	rows := make([]int, n)
	for i := range rows {
		r, ok := t.tap.rowOf[rowHash(x.Data[i*w:(i+1)*w])]
		if !ok {
			r = -1
		}
		rows[i] = r
	}
	start := time.Now()
	y := t.inner.Infer(x)
	end := time.Now()
	t.tap.mu.Lock()
	t.tap.batches = append(t.tap.batches, batchRec{start: start, end: end, rows: rows})
	t.tap.mu.Unlock()
	return y
}

func (t *tapReplica) WeightBytes() (shared, private int) { return t.inner.WeightBytes() }

// reqRec is one request as the load generator saw it.
type reqRec struct {
	row               int
	sched, sent, recv time.Time
	class             int
	err               error
}

// reqSplit divides a request's time after it was sent into waiting (HTTP,
// admission, queue and batch formation), the replica's Infer, and
// everything after it (response encoding and delivery).
type reqSplit struct {
	wait, infer, after time.Duration
	batch              int
}

// joinRequests matches each request to the batch that served its row: the
// earliest batch carrying the row that started after the request was sent
// and ended before its response arrived, each batch slot used once. It
// returns the splits of the matched requests and the number unmatched.
func joinRequests(reqs []reqRec, batches []batchRec) ([]reqSplit, int) {
	type slot struct{ b, pos int }
	order := make([]int, len(batches))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return batches[order[a]].start.Before(batches[order[b]].start) })
	byRow := map[int][]slot{}
	for _, b := range order {
		for pos, row := range batches[b].rows {
			byRow[row] = append(byRow[row], slot{b, pos})
		}
	}
	used := map[slot]bool{}
	var out []reqSplit
	unmatched := 0
	for _, q := range reqs {
		if q.err != nil {
			continue
		}
		found := false
		for _, s := range byRow[q.row] {
			b := batches[s.b]
			if used[s] || b.start.Before(q.sent) || b.end.After(q.recv) {
				continue
			}
			used[s] = true
			out = append(out, reqSplit{wait: b.start.Sub(q.sent), infer: b.end.Sub(b.start), after: q.recv.Sub(b.end), batch: len(b.rows)})
			found = true
			break
		}
		if !found {
			unmatched++
		}
	}
	return out, unmatched
}

// server is one running HTTP front end over a fresh sparse-replica pool.
type server struct {
	srv    *dropback.Server
	hs     *http.Server
	done   chan struct{}
	url    string
	client *http.Client
}

func startServer(s serveInputs, tap *batchTap) (*server, error) {
	srv, err := dropback.NewServer(dropback.ServeConfig{
		NewSparseReplica: func() (dropback.ServeReplica, error) {
			ex := dropback.NewSparseExecutor(s.plan)
			if tap != nil {
				return &tapReplica{inner: ex, tap: tap}, nil
			}
			return ex, nil
		},
		InputShape: []int{s.val.X.Len() / s.val.Len()},
		Replicas:   runtime.NumCPU(),
		MaxBatch:   serveMaxBatch,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	// HTTP/2 without TLS multiplexes every request over at most nproc
	// connections, so open-loop requests overlap and can share a batch.
	var sp, cp http.Protocols
	sp.SetHTTP1(true)
	sp.SetUnencryptedHTTP2(true)
	cp.SetUnencryptedHTTP2(true)
	hs := &http.Server{Handler: dropback.NewServeHandler(srv, dropback.ServeHandlerConfig{}), Protocols: &sp}
	sv := &server{
		srv: srv, hs: hs, done: make(chan struct{}),
		url:    "http://" + ln.Addr().String() + "/v1/predict",
		client: &http.Client{Transport: &http.Transport{Protocols: &cp, MaxConnsPerHost: runtime.NumCPU()}},
	}
	go func() {
		defer close(sv.done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return sv, nil
}

func (sv *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = sv.hs.Shutdown(ctx)
	<-sv.done
	sv.client.CloseIdleConnections()
	sv.srv.Close()
}

// httpError is a response other than 200 OK.
type httpError struct {
	code int
	body string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// isShed reports whether err is the server refusing a request under load
// (admission control answers 429 Too Many Requests).
func isShed(err error) bool {
	var he *httpError
	return errors.As(err, &he) && he.code == http.StatusTooManyRequests
}

func (sv *server) predict(body []byte) (int, error) {
	resp, err := sv.client.Post(sv.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return 0, &httpError{code: resp.StatusCode, body: string(bytes.TrimSpace(b))}
	}
	var p struct {
		Class int `json:"class"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		return 0, fmt.Errorf("decoding prediction: %w", err)
	}
	return p.Class, nil
}

// closedPass sends the whole validation set through the server from
// closedClients clients, each sending its next request when the previous one
// returns. It returns the pass's wall time and every request.
func closedPass(sv *server, s serveInputs) (time.Duration, []reqRec) {
	recs := make([]reqRec, s.val.Len())
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < closedClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for row := c; row < len(recs); row += closedClients {
				q := reqRec{row: row, sent: time.Now()}
				q.sched = q.sent
				q.class, q.err = sv.predict(s.bodies[row])
				q.recv = time.Now()
				recs[row] = q
			}
		}(c)
	}
	wg.Wait()
	return time.Since(t0), recs
}

// openLoop sends n requests at a fixed rate, each due at its scheduled time
// whether or not earlier ones have returned, cycling through the validation
// rows from firstRow. Latency counts from the scheduled time.
func openLoop(sv *server, s serveInputs, rate float64, n, firstRow int) []reqRec {
	recs := make([]reqRec, n)
	interval := time.Duration(float64(time.Second) / rate)
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		sched := start.Add(time.Duration(i) * interval)
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, sched time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			row := (firstRow + i) % len(s.bodies)
			q := reqRec{row: row, sched: sched, sent: time.Now()}
			q.class, q.err = sv.predict(s.bodies[row])
			q.recv = time.Now()
			recs[i] = q
		}(i, sched)
	}
	wg.Wait()
	return recs
}

// checkServed counts every request as one operation: it fails on a transport
// or HTTP error, or on a class that differs from the dense reference.
func checkServed(r *report, s serveInputs, recs []reqRec) {
	for _, q := range recs {
		switch {
		case q.err != nil:
			r.check(false, "request for row %d: %v", q.row, q.err)
		default:
			r.check(q.class == s.refClass[q.row], "row %d served class %d, dense model says %d", q.row, q.class, s.refClass[q.row])
		}
	}
}

// rung is one step of the capacity ladder as the load generator saw it.
type rung struct {
	rate    float64
	latMS   []float64 // latency of each answered request, from its scheduled send
	refused int       // requests refused or failed
	// paceRate is the answered requests over the time from the first
	// scheduled send to the last response.
	paceRate float64
}

func newRung(rate float64, recs []reqRec) rung {
	g := rung{rate: rate}
	var last time.Time
	for _, q := range recs {
		if q.err != nil {
			g.refused++
			continue
		}
		g.latMS = append(g.latMS, float64(q.recv.Sub(q.sched))/1e6)
		if q.recv.After(last) {
			last = q.recv
		}
	}
	if len(g.latMS) > 0 {
		g.paceRate = float64(len(g.latMS)) / last.Sub(recs[0].sched).Seconds()
	}
	return g
}

// passes reports whether the rung met the ladder's limits: no request
// refused or failed, a p99 (with ten samples beyond it) within the latency
// limit, and completions that kept pace with the offered rate.
func (g rung) passes() bool {
	p99, ok := percentile(g.latMS, 0.99)
	return ok && g.refused == 0 && p99 <= ladderP99LimitMS && g.paceRate >= ladderMinPace*g.rate
}

// climbLadder runs the rungs in order through run. A rung that fails is run
// once more, so one stall of the machine does not end the ladder; the ladder
// stops at the first rung that fails twice. It returns the rate of the last
// rung that passed (0 when the first fails) and every rung it ran.
func climbLadder(rates []float64, run func(rate float64) rung) (float64, []rung) {
	var capacity float64
	var ran []rung
	for _, rate := range rates {
		g := run(rate)
		ran = append(ran, g)
		if !g.passes() {
			g = run(rate)
			ran = append(ran, g)
		}
		if !g.passes() {
			break
		}
		capacity = rate
	}
	return capacity, ran
}

func runServe(o options, r *report) error {
	trained, err := trainServeModel(o.seed)
	if err != nil {
		return err
	}
	// The first set-up's inputs are served; later ones are only timed.
	var s serveInputs
	var gens, compiles []float64
	setup := setupTimer{setup: func() error {
		si, gen, compile, err := setupServe(o.seed, trained)
		if s.plan == nil {
			s = si
		}
		gens = append(gens, gen.Seconds())
		compiles = append(compiles, float64(compile)/1e6)
		return err
	}}
	if err := setup.due(0); err != nil {
		return err
	}
	r.set("sparse.artifact_bytes", float64(s.artBytes))
	correct := 0
	for i, c := range s.refClass {
		if c == s.val.Y[i] {
			correct++
		}
	}
	r.set("val_acc", float64(correct)/float64(len(s.refClass)))

	sv, err := startServer(s, nil)
	if err != nil {
		return err
	}
	defer sv.stop()
	var tap *batchTap
	var tapped *server
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.traced {
		// Interleave passes through an untraced and a tapped server, so the
		// tracing overhead compares passes that ran through the same slow
		// windows; the rest of the traced run is open-loop traffic.
		budget = budget * 15 / 100
		tap = &batchTap{rowOf: s.rowOf}
		if tapped, err = startServer(s, tap); err != nil {
			return err
		}
		defer tapped.stop()
	}
	var passes, tappedPasses []float64
	requests := 0
	start, spent0 := time.Now(), setup.spent
	measured := func() time.Duration { return time.Since(start) - (setup.spent - spent0) }
	for len(passes) < 2 || (tapped != nil && len(tappedPasses) < 2) || measured() < budget {
		if err := setup.due(measured()); err != nil {
			return err
		}
		d, recs := closedPass(sv, s)
		checkServed(r, s, recs)
		passes = append(passes, d.Seconds())
		requests += len(recs)
		if tapped != nil {
			d, recs := closedPass(tapped, s)
			checkServed(r, s, recs)
			tappedPasses = append(tappedPasses, d.Seconds())
		}
	}
	setupSecs, err := setup.finish()
	if err != nil {
		return err
	}
	r.set("setup_s", setupSecs)
	r.set("data.gen_s", median(gens))
	r.set("sparse.compile_ms", median(compiles))
	passSecs := median(passes)
	untracedRate := float64(s.val.Len()) / passSecs
	r.set("time_to_target_s", passSecs)
	r.set("samples_per_s", untracedRate)
	fmt.Printf("serve closed-loop passes=%d requests=%d rps=%.1f\n", len(passes), requests, untracedRate)
	if !o.traced {
		if rss, err := peakRSSMB(); err == nil {
			r.set("peak_rss_mb", rss)
		} else {
			r.check(false, "peak RSS: %v", err)
		}
		return nil
	}
	r.set("telemetry.overhead_ratio", passSecs/median(tappedPasses))

	var late []float64
	firstRow := 0
	for _, ph := range []struct {
		name string
		rate float64
		n    int
	}{{"low", lowRate, lowRequests}, {"high", highRate, highRequests}} {
		tap.mu.Lock()
		tap.batches = nil
		tap.mu.Unlock()
		recs := openLoop(tapped, s, ph.rate, ph.n, firstRow)
		firstRow += ph.n
		for i := range recs {
			recs[i].row = s.canon[recs[i].row] // the tap records rows by content
		}
		checkServed(r, s, recs)
		tap.mu.Lock()
		batches := tap.batches
		tap.mu.Unlock()
		var lat []float64
		for _, q := range recs {
			if q.err == nil {
				lat = append(lat, float64(q.recv.Sub(q.sched))/1e6)
			}
			late = append(late, float64(q.sent.Sub(q.sched))/1e6)
		}
		splits, unmatched := joinRequests(recs, batches)
		r.check(unmatched == 0, "%s: %d requests matched no recorded batch", ph.name, unmatched)
		var wait, infer, after, bsz []float64
		for _, sp := range splits {
			wait = append(wait, float64(sp.wait)/1e6)
			infer = append(infer, float64(sp.infer)/1e6)
			after = append(after, float64(sp.after)/1e6)
			bsz = append(bsz, float64(sp.batch))
		}
		setPct(r, "serve.p50_ms."+ph.name, lat, 0.5)
		setPct(r, "serve.p99_ms."+ph.name, lat, 0.99)
		setPct(r, "serve.wait_ms_p50."+ph.name, wait, 0.5)
		setPct(r, "serve.wait_ms_p99."+ph.name, wait, 0.99)
		setPct(r, "serve.infer_ms_p50."+ph.name, infer, 0.5)
		setPct(r, "serve.after_ms_p50."+ph.name, after, 0.5)
		if len(bsz) > 0 {
			r.set("serve.batch_size_mean."+ph.name, mean(bsz))
		}
	}
	setPct(r, "serve.gen_late_ms_p99", late, 0.99)

	// The ladder runs on the untraced server. Refused requests are its stop
	// signal, not wrong outputs; every answered request is still checked.
	capacity, rungs := climbLadder(ladderRates, func(rate float64) rung {
		n := max(ladderMinRequests, int(rate*ladderRungSeconds))
		recs := openLoop(sv, s, rate, n, firstRow)
		firstRow += n
		var answered []reqRec
		for _, q := range recs {
			if !isShed(q.err) {
				answered = append(answered, q)
			}
		}
		checkServed(r, s, answered)
		return newRung(rate, recs)
	})
	for _, g := range rungs {
		p99, _ := percentile(g.latMS, 0.99)
		fmt.Printf("serve ladder rate=%.0f answered=%d refused=%d p99_ms=%.2f pace=%.0f passes=%v\n",
			g.rate, len(g.latMS), g.refused, p99, g.paceRate, g.passes())
	}
	if capacity > 0 {
		r.set("serve.capacity_rps", capacity)
	} else {
		r.markAbsent("serve.capacity_rps", fmt.Sprintf("the first rung (%.0f/s) missed the p99 limit of %g ms", ladderRates[0], ladderP99LimitMS))
	}
	fmt.Printf("serve capacity closed_loop_rps=%.1f ladder_rps=%.0f\n", untracedRate, capacity)
	probe(r, s)
	return nil
}

// setPct sets a percentile metric, or marks it absent when too few samples
// lie beyond it.
func setPct(r *report, name string, xs []float64, q float64) {
	if q == 0.5 && len(xs) > 0 {
		r.set(name, median(xs))
		return
	}
	if v, ok := percentile(xs, q); ok {
		r.set(name, v)
		return
	}
	r.markAbsent(name, fmt.Sprintf("%d samples: fewer than %d beyond p%g", len(xs), minBeyond, q*100))
}

// probe times SparseExecutor.Infer directly against the dense replica on the
// same artifact, at batch 1 and batch 8, and checks they agree bit for bit.
func probe(r *report, s serveInputs) {
	ex := dropback.NewSparseExecutor(s.plan)
	dense := dropback.NewModelReplica(s.dense)
	for _, b := range []struct {
		n, iters int
		name     string
	}{{1, 400, "b1"}, {8, 100, "b8"}} {
		x, _ := s.val.Batch(0, b.n)
		want := append([]float32(nil), dense.Infer(x).Data...)
		got := ex.Infer(x).Data
		same := len(got) == len(want)
		for i := range want {
			same = same && math.Float32bits(got[i]) == math.Float32bits(want[i])
		}
		r.check(same, "sparse and dense Infer differ at batch %d", b.n)

		timeIt := func(f func()) float64 {
			var d []float64
			for i := 0; i < b.iters; i++ {
				t0 := time.Now()
				f()
				d = append(d, float64(time.Since(t0))/1e6)
			}
			return median(d)
		}
		ex.ResetTraffic()
		sparseMS := timeIt(func() { ex.Infer(x) })
		regens := float64(ex.WeightTraffic().Regenerations) / float64(b.iters)
		denseMS := timeIt(func() { dense.Infer(x) })
		r.set("sparsenn.infer_ms."+b.name, sparseMS)
		r.set("sparsenn.sparse_dense_ratio."+b.name, sparseMS/denseMS)
		if b.n == 1 && regens > 0 {
			r.set("sparsenn.ns_per_regen", sparseMS*1e6/regens)
		}
	}
}
