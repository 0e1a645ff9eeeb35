package dist

import (
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dropback/internal/faults"
)

// meshConfigs pre-binds one loopback listener per rank and returns ready
// Configs sharing the resolved address list — the in-process analogue of N
// processes whose addresses are known up front.
func meshConfigs(t *testing.T, world int) []Config {
	t.Helper()
	addrs := make([]string, world)
	lns := make([]net.Listener, world)
	for r := 0; r < world; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[r] = ln
		addrs[r] = ln.Addr().String()
	}
	cfgs := make([]Config, world)
	for r := 0; r < world; r++ {
		cfgs[r] = Config{
			Rank:           r,
			Peers:          append([]string(nil), addrs...),
			Listener:       lns[r],
			ConnectTimeout: 5 * time.Second,
			StepTimeout:    5 * time.Second,
		}
	}
	return cfgs
}

// connectMesh runs Connect for every rank concurrently (real clusters start
// their nodes independently) and returns the clusters, failing the test on
// any error.
func connectMesh(t *testing.T, cfgs []Config, hs Handshake) []*Cluster {
	t.Helper()
	clusters, errs := connectMeshErr(cfgs, func(int) Handshake { return hs })
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d connect: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, c := range clusters {
			if c != nil {
				c.Close()
			}
		}
	})
	return clusters
}

// connectMeshErr is the error-collecting variant for mismatch tests: each
// rank's handshake comes from hsFor, and per-rank errors are returned
// instead of failing.
func connectMeshErr(cfgs []Config, hsFor func(rank int) Handshake) ([]*Cluster, []error) {
	world := len(cfgs)
	clusters := make([]*Cluster, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			clusters[r], errs[r] = Connect(cfgs[r], hsFor(r))
		}(r)
	}
	wg.Wait()
	return clusters, errs
}

// stepPayloadFor builds a minimal valid step payload for rank r at the given
// step: one sample, two values, contents derived from the rank so receivers
// can verify provenance.
func stepPayloadFor(rank int, step uint64) []byte {
	return buildStepPayload(
		StepHeader{Rank: uint32(rank), Step: step, Lo: uint32(rank), Hi: uint32(rank) + 1, Active: 2},
		[]float64{float64(rank)}, []uint8{1},
		[][]float32{{float32(rank), float32(rank) * 2}}, nil,
	)
}

// TestClusterExchangeThreeNodes builds a 3-node mesh and runs several
// exchange rounds: every node must receive every other node's exact payload,
// indexed by rank, and the socket-level byte counters must equal the
// analytical frame sizes.
func TestClusterExchangeThreeNodes(t *testing.T) {
	cfgs := meshConfigs(t, 3)
	clusters := connectMesh(t, cfgs, Handshake{Seed: 5, Budget: 100})

	for step := uint64(0); step < 3; step++ {
		var wg sync.WaitGroup
		got := make([][][]byte, 3)
		errs := make([]error, 3)
		sentBefore := make([]int64, 3)
		for r, c := range clusters {
			sentBefore[r] = c.BytesSent()
			wg.Add(1)
			go func(r int, c *Cluster) {
				defer wg.Done()
				replies, err := c.Exchange(step, stepPayloadFor(r, step))
				if err != nil {
					errs[r] = err
					return
				}
				// Copy: replies alias buffers reused next Exchange.
				got[r] = make([][]byte, len(replies))
				for i, p := range replies {
					got[r][i] = append([]byte(nil), p...)
				}
			}(r, c)
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("step %d rank %d: %v", step, r, err)
			}
		}
		for r := 0; r < 3; r++ {
			for s := 0; s < 3; s++ {
				if s == r {
					if got[r][s] != nil {
						t.Fatalf("rank %d received a payload at its own slot", r)
					}
					continue
				}
				want := stepPayloadFor(s, step)
				if string(got[r][s]) != string(want) {
					t.Fatalf("step %d: rank %d's copy of rank %d's payload differs", step, r, s)
				}
			}
			// Each node sent its frame to 2 peers: the counters sit on the
			// socket, so the delta is exactly 2 framed payloads.
			wantSent := int64(2 * (len(stepPayloadFor(r, step)) + frameOverhead))
			if d := clusters[r].BytesSent() - sentBefore[r]; d != wantSent {
				t.Fatalf("step %d: rank %d sent %d bytes, want %d", step, r, d, wantSent)
			}
		}
	}

	// Per-peer counters: rank 0's link to rank 1 carried 3 steps' frames
	// each way plus one hello frame each way from the handshake.
	frameLen := int64(len(stepPayloadFor(0, 0)) + frameOverhead)
	helloFrame := int64(helloLen + frameOverhead)
	sent01, recv01 := clusters[0].PeerBytes(1)
	if sent01 != 3*frameLen+helloFrame {
		t.Fatalf("peer 0→1 sent %d bytes, want %d", sent01, 3*frameLen+helloFrame)
	}
	if recv01 != 3*frameLen+helloFrame {
		t.Fatalf("peer 0←1 received %d bytes, want %d", recv01, 3*frameLen+helloFrame)
	}
	if s, r := clusters[0].PeerBytes(0); s != 0 || r != 0 {
		t.Fatal("own-rank peer counters must be zero")
	}
}

// TestClusterHandshakeMismatch gives rank 1 a different value for each
// bit-identity field in turn: the mesh must refuse to form, the mismatching
// pair must both see a descriptive error (ErrHandshakeMismatch on the side
// that detected it, ErrPeerAborted with the reason on the side that was
// refused), and no cluster may come up half-connected.
func TestClusterHandshakeMismatch(t *testing.T) {
	base := Handshake{Seed: 7, Method: 1, Budget: 500, FreezeAfter: 2, Batch: 8, ParamTotal: 100, ModelHash: 0xAA, StartStep: 0}
	mutations := map[string]func(*Handshake){
		"seed":    func(h *Handshake) { h.Seed++ },
		"method":  func(h *Handshake) { h.Method++ },
		"budget":  func(h *Handshake) { h.Budget++ },
		"freeze":  func(h *Handshake) { h.FreezeAfter++ },
		"batch":   func(h *Handshake) { h.Batch++ },
		"params":  func(h *Handshake) { h.ParamTotal++ },
		"model":   func(h *Handshake) { h.ModelHash++ },
		"restart": func(h *Handshake) { h.StartStep++ },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			cfgs := meshConfigs(t, 2)
			clusters, errs := connectMeshErr(cfgs, func(r int) Handshake {
				h := base
				if r == 1 {
					mutate(&h)
				}
				return h
			})
			for _, c := range clusters {
				if c != nil {
					t.Fatal("mismatched mesh connected")
				}
			}
			for r, err := range errs {
				if err == nil {
					t.Fatalf("rank %d connected despite %s mismatch", r, name)
				}
				if !errors.Is(err, ErrHandshakeMismatch) && !errors.Is(err, ErrPeerAborted) {
					t.Fatalf("rank %d: %v is neither ErrHandshakeMismatch nor ErrPeerAborted", r, err)
				}
			}
		})
	}
}

// partialFor builds a partial payload stamped with rank and step.
func partialFor(rank int, step uint64) []byte {
	return AppendSampleValues(AppendPartialHeader(nil, PartialHeader{
		Rank: uint32(rank), Step: step, Rows: 1, Active: 2, Loss: float64(rank), Correct: 1,
	}), []float32{float32(rank), 2}, nil)
}

// reencode rebuilds the payload bytes a parsed partial came from.
func reencode(sp PartialPayload) string {
	sums := make([]float32, sp.Hdr.Active)
	sp.CopyValues(sums, 0)
	return string(AppendSampleValues(AppendPartialHeader(nil, sp.Hdr), sums, nil))
}

// TestClusterSendRecvChain runs the dense chain's traffic over a 3-node
// mesh — 0 → 1 → 2, then 2 → {0, 1} — and then each way Recv must refuse a
// frame: a stale step, a payload stamped with another rank, a step payload
// where a partial belongs, and an abort, which carries its reason.
func TestClusterSendRecvChain(t *testing.T) {
	clusters := connectMesh(t, meshConfigs(t, 3), Handshake{Seed: 5})
	recv := func(c *Cluster, step uint64, from int) string {
		t.Helper()
		pl, err := c.Recv(step, from)
		if err != nil {
			t.Fatalf("rank %d receiving from %d: %v", c.Rank(), from, err)
		}
		return reencode(pl)
	}
	send := func(c *Cluster, step uint64, to int, p []byte) {
		t.Helper()
		if err := c.Send(step, to, p); err != nil {
			t.Fatalf("rank %d sending to %d: %v", c.Rank(), to, err)
		}
	}
	sent0, recv0 := clusters[0].PeerBytes(1) // the hellos
	for step := uint64(0); step < 3; step++ {
		send(clusters[0], step, 1, partialFor(0, step))
		if recv(clusters[1], step, 0) != string(partialFor(0, step)) {
			t.Fatal("rank 1 received altered sums")
		}
		send(clusters[1], step, 2, partialFor(1, step))
		recv(clusters[2], step, 1)
		send(clusters[2], step, 0, partialFor(2, step))
		send(clusters[2], step, 1, partialFor(2, step))
		for r := 0; r < 2; r++ {
			if recv(clusters[r], step, 2) != string(partialFor(2, step)) {
				t.Fatalf("rank %d received altered totals", r)
			}
		}
	}
	if sent, recvd := clusters[0].PeerBytes(1); sent-sent0 != 3*int64(PartialFrameBytes(2)) || recvd != recv0 {
		t.Fatalf("rank 0 ↔ 1: sent %d, received %d; want %d and 0", sent-sent0, recvd-recv0, 3*PartialFrameBytes(2))
	}

	for _, tc := range []struct {
		name    string
		payload []byte
		want    error
	}{
		{"stale step", partialFor(0, 2), ErrStaleStep},
		{"wrong rank", partialFor(2, 3), ErrShardMismatch},
	} {
		send(clusters[0], 3, 1, tc.payload)
		if _, err := clusters[1].Recv(3, 0); !errors.Is(err, tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	send(clusters[0], 3, 1, stepPayloadFor(0, 3))
	if _, err := clusters[1].Recv(3, 0); err == nil || !strings.Contains(err.Error(), "unexpected") {
		t.Fatalf("step payload in place of a partial: got %v", err)
	}
	const reason = "chain broken on node 2"
	clusters[2].Abort(reason)
	if _, err := clusters[0].Recv(3, 2); !errors.Is(err, ErrPeerAborted) || !strings.Contains(err.Error(), reason) {
		t.Fatalf("abort during Recv: got %v, want ErrPeerAborted with %q", err, reason)
	}
}

// TestClusterStaleStep desynchronizes the step counters: both nodes must
// fail the exchange, at least one classifying it as ErrStaleStep.
func TestClusterStaleStep(t *testing.T) {
	cfgs := meshConfigs(t, 2)
	clusters := connectMesh(t, cfgs, Handshake{Seed: 1})
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for r, c := range clusters {
		wg.Add(1)
		go func(r int, c *Cluster) {
			defer wg.Done()
			step := uint64(10 + r) // rank 0 at step 10, rank 1 at step 11
			_, errs[r] = c.Exchange(step, stepPayloadFor(r, step))
		}(r, c)
	}
	wg.Wait()
	if !errors.Is(errs[0], ErrStaleStep) && !errors.Is(errs[1], ErrStaleStep) {
		t.Fatalf("neither node saw ErrStaleStep: %v / %v", errs[0], errs[1])
	}
}

// TestClusterAbortPropagatesReason has rank 0 abort with a reason; rank 1's
// next exchange must fail with ErrPeerAborted carrying that reason verbatim.
func TestClusterAbortPropagatesReason(t *testing.T) {
	cfgs := meshConfigs(t, 2)
	clusters := connectMesh(t, cfgs, Handshake{Seed: 2})
	const reason = "gradient fold diverged on node 0"
	clusters[0].Abort(reason)
	_, err := clusters[1].Exchange(0, stepPayloadFor(1, 0))
	if !errors.Is(err, ErrPeerAborted) {
		t.Fatalf("got %v, want ErrPeerAborted", err)
	}
	if !strings.Contains(err.Error(), reason) {
		t.Fatalf("abort reason %q lost: %v", reason, err)
	}
}

// TestClusterPeerDisconnectMidExchange severs rank 1's connection after a
// few step bytes (the handshake is exempt: WrapConn wraps post-handshake).
// Both nodes must surface a descriptive per-peer error — ErrInjected through
// the cut side, a truncated/reset read on the other — rather than hang or
// misfold.
func TestClusterPeerDisconnectMidExchange(t *testing.T) {
	cfgs := meshConfigs(t, 2)
	cfgs[1].WrapConn = func(rank int, c net.Conn) net.Conn {
		return &faults.CutConn{Conn: c, N: 10} // dies 10 bytes into step traffic
	}
	clusters := connectMesh(t, cfgs, Handshake{Seed: 3})
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for r, c := range clusters {
		wg.Add(1)
		go func(r int, c *Cluster) {
			defer wg.Done()
			_, errs[r] = c.Exchange(0, stepPayloadFor(r, 0))
		}(r, c)
	}
	wg.Wait()
	if !errors.Is(errs[1], faults.ErrInjected) {
		t.Fatalf("cut side: got %v, want ErrInjected", errs[1])
	}
	if errs[0] == nil {
		t.Fatal("healthy side did not notice the dead peer")
	}
	if !strings.Contains(errs[0].Error(), "peer 1") {
		t.Fatalf("healthy side's error does not name the peer: %v", errs[0])
	}
}

// TestClusterStalledPeerTripsDeadline wraps rank 1's link in a StallConn
// that blocks all step writes: rank 0's read must trip StepTimeout instead
// of hanging the fold. The stalled node's exchange stays blocked until the
// release channel opens at teardown — exactly the recovery path a real
// operator has (kill the stalled process).
func TestClusterStalledPeerTripsDeadline(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	cfgs := meshConfigs(t, 2)
	cfgs[0].StepTimeout = 250 * time.Millisecond
	cfgs[1].StepTimeout = 10 * time.Second
	stall := &faults.StallConn{N: 0, Release: release}
	cfgs[1].WrapConn = func(rank int, c net.Conn) net.Conn {
		stall.Conn = c
		return stall
	}
	clusters := connectMesh(t, cfgs, Handshake{Seed: 4})

	done := make(chan error, 1)
	go func() {
		_, err := clusters[1].Exchange(0, stepPayloadFor(1, 0))
		done <- err
	}()

	start := time.Now()
	_, err := clusters[0].Exchange(0, stepPayloadFor(0, 0))
	if err == nil {
		t.Fatal("exchange with a stalled peer succeeded")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("got %v, want a net timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to trip", elapsed)
	}
	if !stall.Stalled() {
		t.Fatal("stall injector never engaged")
	}
	go func() { <-done }() // drain the stalled node once the deferred close releases it
}

// TestClusterConfigValidate pins the rejection matrix.
func TestClusterConfigValidate(t *testing.T) {
	good := Config{Rank: 0, Peers: []string{"a:1", "b:2"}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Rank: 0, Peers: []string{"a:1"}},         // world of one
		{Rank: 2, Peers: []string{"a:1", "b:2"}},  // rank out of range
		{Rank: -1, Peers: []string{"a:1", "b:2"}}, // negative rank
		{Rank: 0, Peers: []string{"a:1", ""}},     // missing peer address
		{Rank: 0, Peers: []string{"a:1", "b:2"}, ConnectTimeout: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

// TestClusterStepFrameBound pins the receive bound Connect derives from the
// handshake — the larger of a partial frame over every parameter and, with
// a DropBack budget, a frozen step frame of the whole batch's k-value rows,
// never below the handshake bound so abort frames fit. A largest legal
// frame of each kind arrives intact, and one byte more is refused from the
// length prefix alone.
func TestClusterStepFrameBound(t *testing.T) {
	for _, hs := range []Handshake{
		{Batch: 32, ParamTotal: 89610},
		{Batch: 32, ParamTotal: 89610, Budget: 8961},
		{Batch: 16, ParamTotal: 3_000_000, Budget: 150_000},
		{Batch: 2, ParamTotal: 3, Budget: 50},
		{},
	} {
		want := PartialFrameBytes(int(hs.ParamTotal))
		if hs.Budget > 0 {
			want = max(want, StepFrameBytes(int(hs.Batch), int(min(hs.Budget, hs.ParamTotal))))
		}
		want = max(want-frameOverhead, handshakeMaxFrame)
		if got := stepMaxPayload(hs); got != want {
			t.Fatalf("batch %d, %d params, budget %d: bound %d, want %d", hs.Batch, hs.ParamTotal, hs.Budget, got, want)
		}
	}

	// Baseline run: the largest legal payload is a partial over every
	// parameter, sent point to point.
	hs := Handshake{Seed: 8, Batch: 2, ParamTotal: 1500}
	full := AppendSampleValues(AppendPartialHeader(nil, PartialHeader{Rank: 1, Rows: 2, Active: 1500}),
		make([]float32, hs.ParamTotal), nil)
	clusters := connectMesh(t, meshConfigs(t, 2), hs)
	if clusters[0].maxFrame != len(full) || len(full) != stepMaxPayload(hs) {
		t.Fatalf("bound %d, full partial payload %d bytes, stepMaxPayload %d", clusters[0].maxFrame, len(full), stepMaxPayload(hs))
	}
	done := make(chan error, 1)
	go func() { done <- clusters[1].Send(0, 0, full) }()
	got, err := clusters[0].Recv(0, 1)
	if err != nil {
		t.Fatalf("full partial at the bound: %v", err)
	}
	if reencode(got) != string(full) {
		t.Fatal("full partial payload arrived altered")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	refuseOverBound(t, hs, func(c *Cluster) error { _, err := c.Recv(0, 1); return err })

	// DropBack run whose frozen whole-batch step frame outgrows the partial.
	hs = Handshake{Seed: 9, Batch: 2, ParamTotal: 1500, Budget: 1400}
	rows := [][]float32{make([]float32, hs.Budget), make([]float32, hs.Budget)}
	step := buildStepPayload(StepHeader{Rank: 1, Step: 0, Lo: 0, Hi: 2, Active: uint32(hs.Budget)},
		[]float64{0.5, 0.25}, []uint8{1, 0}, rows, nil)
	clusters = connectMesh(t, meshConfigs(t, 2), hs)
	if clusters[0].maxFrame != len(step) {
		t.Fatalf("bound %d, whole-batch frozen step payload %d bytes", clusters[0].maxFrame, len(step))
	}
	go func() {
		_, err := clusters[1].Exchange(0, step)
		done <- err
	}()
	replies, err := clusters[0].Exchange(0, stepPayloadFor(0, 0))
	if err != nil {
		t.Fatalf("whole-batch frozen step at the bound: %v", err)
	}
	if string(replies[1]) != string(step) {
		t.Fatal("frozen step payload arrived altered")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	refuseOverBound(t, hs, func(c *Cluster) error { _, err := c.Exchange(0, stepPayloadFor(0, 0)); return err })
}

// refuseOverBound connects a fresh 2-node mesh for hs, has rank 1 write a
// length prefix one byte over the bound, and requires rank 0's read to fail
// with ErrFrameTooLarge without growing a receive buffer.
func refuseOverBound(t *testing.T, hs Handshake, read func(*Cluster) error) {
	t.Helper()
	clusters := connectMesh(t, meshConfigs(t, 2), hs)
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], uint32(stepMaxPayload(hs)+1))
	if _, err := clusters[1].peers[0].conn.Write(prefix[:]); err != nil {
		t.Fatal(err)
	}
	if err := read(clusters[0]); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("frame one byte over the bound: got %v, want ErrFrameTooLarge", err)
	}
	if n := cap(clusters[0].recvBufs[1]); n != 0 {
		t.Fatalf("receiver grew a %d-byte buffer for a refused frame", n)
	}
}

// TestClusterConnectTimeout proves a missing peer fails the mesh build
// within ConnectTimeout instead of hanging forever.
func TestClusterConnectTimeout(t *testing.T) {
	// Rank 1 dials rank 0 at an address nobody listens on.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	cfg := Config{
		Rank:           1,
		Peers:          []string{dead, "127.0.0.1:0"},
		ConnectTimeout: 300 * time.Millisecond,
	}
	start := time.Now()
	if _, err := Connect(cfg, Handshake{}); err == nil {
		t.Fatal("connected to a dead peer")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("connect failure took %v", elapsed)
	}
}

// TestClusterCloseIdempotent double-closes every node.
func TestClusterCloseIdempotent(t *testing.T) {
	cfgs := meshConfigs(t, 2)
	clusters := connectMesh(t, cfgs, Handshake{Seed: 6})
	for _, c := range clusters {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
