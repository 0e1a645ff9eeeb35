package dist

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Config parameterizes one node's membership in a training cluster.
type Config struct {
	// Rank is this node's index in [0, len(Peers)).
	Rank int
	// Peers holds every rank's dialable address, indexed by rank; the entry
	// at Rank describes this node and is never dialed. len(Peers) is the
	// world size.
	Peers []string
	// Listen is the local bind address for incoming peers ("" lets the
	// kernel choose on 127.0.0.1; production passes an explicit host:port
	// that matches Peers[Rank]). Ignored when Listener is set.
	Listen string
	// Listener, if non-nil, is a pre-bound listener to accept peers on —
	// the test seam that lets in-process nodes bind 127.0.0.1:0 first and
	// share the resolved addresses before any node starts connecting.
	Listener net.Listener
	// ConnectTimeout bounds the whole mesh build, including dial retries
	// while lower-rank peers are still starting (10s if zero).
	ConnectTimeout time.Duration
	// StepTimeout bounds each step-time transfer (an Exchange, a Send, a
	// Recv); a stalled peer trips it instead of hanging the fold (30s if
	// zero).
	StepTimeout time.Duration
	// WrapConn, if non-nil, wraps each established peer connection after
	// the handshake — the fault-injection seam internal/faults' connection
	// injectors plug into. Production leaves it nil.
	WrapConn func(rank int, c net.Conn) net.Conn
}

// Validate reports the first configuration problem.
func (c *Config) Validate() error {
	world := len(c.Peers)
	if world < 2 {
		return fmt.Errorf("dist: need at least 2 peers, got %d", world)
	}
	if c.Rank < 0 || c.Rank >= world {
		return fmt.Errorf("dist: rank %d outside the %d-node world", c.Rank, world)
	}
	for r, addr := range c.Peers {
		if r != c.Rank && addr == "" {
			return fmt.Errorf("dist: peer %d has no address", r)
		}
	}
	if c.ConnectTimeout < 0 || c.StepTimeout < 0 {
		return fmt.Errorf("dist: timeouts must be non-negative")
	}
	return nil
}

const (
	defaultConnectTimeout = 10 * time.Second
	defaultStepTimeout    = 30 * time.Second
	// handshakeMaxFrame bounds frames read during the handshake, where only
	// hello and abort payloads are legal.
	handshakeMaxFrame = 4096
	// dialRetryEvery paces dial retries while a lower-rank peer's listener
	// is still coming up.
	dialRetryEvery = 25 * time.Millisecond
)

// peerLink is one established connection to a peer, with its byte counters.
type peerLink struct {
	conn    net.Conn // post-WrapConn view the exchange uses
	counter *countingConn
}

// countingConn counts bytes crossing the real connection. It sits innermost
// (directly on the net.Conn) so the counters report true bytes-on-wire even
// when a fault injector is wrapped outside it.
type countingConn struct {
	net.Conn
	sent atomic.Int64
	recv atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.recv.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent.Add(int64(n))
	return n, err
}

// Cluster is one node's view of the full training mesh: an open connection
// to every other rank, plus the per-step transfers — the all-to-all
// Exchange of shard frames and the point-to-point Send and Recv of the rank
// chain's partial sums. It is single-goroutine like the trainer that owns
// it (Exchange runs internal goroutines but does not return until they
// finish).
type Cluster struct {
	cfg   Config
	rank  int
	world int
	peers []*peerLink // indexed by rank; nil at own rank
	ln    net.Listener
	// maxFrame bounds each payload received during a step (stepMaxPayload),
	// checked against the length prefix before a receive buffer grows.
	maxFrame int

	frame    []byte   // scratch for the outgoing frame
	recvBufs [][]byte // per-peer receive buffers, reused across steps
	out      [][]byte // per-peer payload views returned by Exchange
	errs     []error  // per-goroutine error slots, reused across steps

	closed bool
}

// stepMaxPayload is the largest payload a peer can legally send during a
// step of the run hs describes: a partial frame of ParamTotal running sums
// (the dense rank chain) or, for a run with a DropBack budget, a frozen step
// frame carrying the whole batch's rows of k tracked values. It never drops
// below handshakeMaxFrame, so an abort frame always fits.
func stepMaxPayload(hs Handshake) int {
	bound := PartialFrameBytes(int(hs.ParamTotal))
	if hs.Budget > 0 {
		bound = max(bound, StepFrameBytes(int(hs.Batch), int(min(hs.Budget, hs.ParamTotal))))
	}
	return max(bound-frameOverhead, handshakeMaxFrame)
}

// Connect builds the full mesh: rank r accepts one connection from every
// higher rank and dials every lower rank (retrying while their listeners
// come up), then handshakes each link — both sides send their hello and
// verify the peer's. Any disagreement on a bit-identity field aborts the
// connection with a descriptive reason. On success every pair of nodes has
// exactly one verified connection.
func Connect(cfg Config, hs Handshake) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.ConnectTimeout == 0 {
		cfg.ConnectTimeout = defaultConnectTimeout
	}
	if cfg.StepTimeout == 0 {
		cfg.StepTimeout = defaultStepTimeout
	}
	world := len(cfg.Peers)
	hs.Version = wireVersion
	hs.Rank = uint32(cfg.Rank)
	hs.World = uint32(world)

	c := &Cluster{
		cfg:      cfg,
		rank:     cfg.Rank,
		world:    world,
		maxFrame: stepMaxPayload(hs),
		peers:    make([]*peerLink, world),
		recvBufs: make([][]byte, world),
		out:      make([][]byte, world),
		errs:     make([]error, 2*world),
	}
	deadline := time.Now().Add(cfg.ConnectTimeout)

	incoming := world - 1 - cfg.Rank
	c.ln = cfg.Listener
	if c.ln == nil && (incoming > 0 || cfg.Listen != "") {
		addr := cfg.Listen
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("dist: rank %d listen %s: %w", cfg.Rank, addr, err)
		}
		c.ln = ln
	}

	// Accept from higher ranks concurrently with dialing lower ranks, so
	// mesh build time is one round trip, not rank-serialized.
	acceptErr := make(chan error, 1)
	if incoming > 0 {
		if d, ok := c.ln.(interface{ SetDeadline(time.Time) error }); ok {
			d.SetDeadline(deadline)
		}
		go func() { acceptErr <- c.acceptPeers(incoming, deadline, hs) }()
	} else {
		acceptErr <- nil
	}

	dialErr := c.dialPeers(deadline, hs)
	aerr := <-acceptErr
	if d, ok := c.ln.(interface{ SetDeadline(time.Time) error }); ok {
		d.SetDeadline(time.Time{})
	}
	if err := errors.Join(dialErr, aerr); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// acceptPeers collects and handshakes n incoming connections, each of which
// must introduce itself as a distinct rank above ours.
func (c *Cluster) acceptPeers(n int, deadline time.Time, hs Handshake) error {
	for i := 0; i < n; i++ {
		conn, err := c.ln.Accept()
		if err != nil {
			return fmt.Errorf("dist: rank %d accepting peer %d of %d: %w", c.rank, i+1, n, err)
		}
		link, rank, err := c.handshake(conn, -1, deadline, hs)
		if err != nil {
			conn.Close()
			return err
		}
		if c.peers[rank] != nil {
			conn.Close()
			return fmt.Errorf("%w: rank %d connected twice", ErrHandshakeMismatch, rank)
		}
		c.peers[rank] = link
	}
	return nil
}

// dialPeers connects to every lower rank, retrying while their listeners
// are still coming up.
func (c *Cluster) dialPeers(deadline time.Time, hs Handshake) error {
	for r := 0; r < c.rank; r++ {
		var conn net.Conn
		for {
			remaining := time.Until(deadline)
			if remaining <= 0 {
				return fmt.Errorf("dist: rank %d dialing peer %d at %s: connect timeout", c.rank, r, c.cfg.Peers[r])
			}
			var err error
			conn, err = net.DialTimeout("tcp", c.cfg.Peers[r], remaining)
			if err == nil {
				break
			}
			time.Sleep(dialRetryEvery)
		}
		link, _, err := c.handshake(conn, r, deadline, hs)
		if err != nil {
			conn.Close()
			return err
		}
		c.peers[r] = link
	}
	return nil
}

// handshake sends our hello and verifies the peer's on a fresh connection.
// expectRank is the rank we dialed (-1 on accepted connections, where the
// peer introduces itself and must merely be a higher rank). On a verified
// mismatch an abort frame with the reason is sent before the error returns,
// so the far side logs why it was refused instead of a bare reset.
func (c *Cluster) handshake(conn net.Conn, expectRank int, deadline time.Time, hs Handshake) (*peerLink, int, error) {
	cc := &countingConn{Conn: conn}
	conn.SetDeadline(deadline)
	defer conn.SetDeadline(time.Time{})
	if err := WriteFrame(cc, AppendHello(nil, hs)); err != nil {
		return nil, 0, fmt.Errorf("dist: rank %d sending hello: %w", c.rank, err)
	}
	var buf []byte
	payload, err := ReadFrame(cc, &buf, handshakeMaxFrame)
	if err != nil {
		return nil, 0, fmt.Errorf("dist: rank %d reading hello: %w", c.rank, err)
	}
	if m, merr := PayloadMagic(payload); merr == nil && m == magicAbort {
		rank, reason, _ := DecodeAbort(payload)
		return nil, 0, fmt.Errorf("%w: rank %d: %s", ErrPeerAborted, rank, reason)
	}
	ph, err := DecodeHello(payload)
	if err != nil {
		return nil, 0, err
	}
	if err := verifyHello(hs, ph, expectRank); err != nil {
		// Tell the peer why before hanging up; best-effort.
		WriteFrame(cc, AppendAbort(nil, hs.Rank, err.Error()))
		return nil, 0, err
	}
	link := &peerLink{conn: cc, counter: cc}
	if c.cfg.WrapConn != nil {
		link.conn = c.cfg.WrapConn(int(ph.Rank), cc)
	}
	return link, int(ph.Rank), nil
}

// verifyHello checks every bit-identity field of a peer's hello against our
// own handshake.
func verifyHello(mine, theirs Handshake, expectRank int) error {
	switch {
	case theirs.Version != mine.Version:
		return fmt.Errorf("%w: wire version %d here, peer says %d", ErrHandshakeMismatch, mine.Version, theirs.Version)
	case theirs.World != mine.World:
		return fmt.Errorf("%w: world size %d here, peer says %d", ErrHandshakeMismatch, mine.World, theirs.World)
	case expectRank >= 0 && theirs.Rank != uint32(expectRank):
		return fmt.Errorf("%w: dialed rank %d, peer introduced itself as %d", ErrHandshakeMismatch, expectRank, theirs.Rank)
	case expectRank < 0 && (theirs.Rank <= mine.Rank || theirs.Rank >= mine.World):
		return fmt.Errorf("%w: accepted peer claims rank %d, expected one in (%d, %d)", ErrHandshakeMismatch, theirs.Rank, mine.Rank, mine.World)
	case theirs.Seed != mine.Seed:
		return fmt.Errorf("%w: seed %d here, peer %d says %d", ErrHandshakeMismatch, mine.Seed, theirs.Rank, theirs.Seed)
	case theirs.Method != mine.Method:
		return fmt.Errorf("%w: method %d here, peer %d says %d", ErrHandshakeMismatch, mine.Method, theirs.Rank, theirs.Method)
	case theirs.Budget != mine.Budget:
		return fmt.Errorf("%w: budget %d here, peer %d says %d", ErrHandshakeMismatch, mine.Budget, theirs.Rank, theirs.Budget)
	case theirs.FreezeAfter != mine.FreezeAfter:
		return fmt.Errorf("%w: freeze epoch %d here, peer %d says %d", ErrHandshakeMismatch, mine.FreezeAfter, theirs.Rank, theirs.FreezeAfter)
	case theirs.Batch != mine.Batch:
		return fmt.Errorf("%w: batch size %d here, peer %d says %d", ErrHandshakeMismatch, mine.Batch, theirs.Rank, theirs.Batch)
	case theirs.ParamTotal != mine.ParamTotal:
		return fmt.Errorf("%w: %d parameters here, peer %d says %d", ErrHandshakeMismatch, mine.ParamTotal, theirs.Rank, theirs.ParamTotal)
	case theirs.ModelHash != mine.ModelHash:
		return fmt.Errorf("%w: model hash %016x here, peer %d says %016x", ErrHandshakeMismatch, mine.ModelHash, theirs.Rank, theirs.ModelHash)
	case theirs.StartStep != mine.StartStep:
		return fmt.Errorf("%w: resuming at step %d here, peer %d at step %d — nodes must resume from the same checkpoint", ErrHandshakeMismatch, mine.StartStep, theirs.Rank, theirs.StartStep)
	}
	return nil
}

// Rank returns this node's rank; World the cluster size.
func (c *Cluster) Rank() int { return c.rank }

// World returns the number of nodes in the cluster.
func (c *Cluster) World() int { return c.world }

// Exchange broadcasts this node's step payload to every peer and collects
// one step payload from each, returned indexed by rank (nil at our own).
// Writes and reads run concurrently per peer under StepTimeout deadlines, so
// symmetric large frames cannot deadlock on full socket buffers and a
// stalled peer trips the deadline instead of hanging the fold. Received
// frames are validated here for freshness (step counter) and provenance
// (claimed rank matches the connection); layout validation beyond that is
// the caller's. Returned payloads alias internal buffers valid until the
// next Exchange.
func (c *Cluster) Exchange(step uint64, payload []byte) ([][]byte, error) {
	c.frame = AppendFrame(c.frame[:0], payload)
	deadline := time.Now().Add(c.cfg.StepTimeout)
	for i := range c.errs {
		c.errs[i] = nil
	}
	for i := range c.out {
		c.out[i] = nil
	}
	var wg sync.WaitGroup
	for r, p := range c.peers {
		if p == nil {
			continue
		}
		wg.Add(2)
		go func(r int, p *peerLink) {
			defer wg.Done()
			p.conn.SetWriteDeadline(deadline)
			if _, err := p.conn.Write(c.frame); err != nil {
				c.errs[2*r] = fmt.Errorf("dist: step %d: sending to peer %d: %w", step, r, err)
			}
		}(r, p)
		go func(r int, p *peerLink) {
			defer wg.Done()
			p.conn.SetReadDeadline(deadline)
			c.out[r], c.errs[2*r+1] = c.receive(step, r, magicStep)
		}(r, p)
	}
	wg.Wait()
	if err := errors.Join(c.errs...); err != nil {
		return nil, err
	}
	return c.out, nil
}

// receive reads peer r's next frame under the deadline already set on its
// connection and checks it is a payload of kind want that carries this step
// and r's rank; an abort frame surfaces as ErrPeerAborted with its reason.
// The payload aliases r's receive buffer until its next read.
func (c *Cluster) receive(step uint64, r int, want uint32) ([]byte, error) {
	pl, err := ReadFrame(c.peers[r].conn, &c.recvBufs[r], c.maxFrame)
	if err != nil {
		return nil, fmt.Errorf("dist: step %d: receiving from peer %d: %w", step, r, err)
	}
	magic, err := PayloadMagic(pl)
	if err != nil {
		return nil, fmt.Errorf("dist: step %d: peer %d: %w", step, r, err)
	}
	var rank uint32
	var got uint64
	switch {
	case magic == magicAbort:
		rank, reason, _ := DecodeAbort(pl)
		return nil, fmt.Errorf("%w: rank %d: %s", ErrPeerAborted, rank, reason)
	case magic != want:
		return nil, fmt.Errorf("dist: step %d: peer %d sent an unexpected %08x payload mid-training", step, r, magic)
	case magic == magicStep:
		var h StepHeader
		h, err = DecodeStepHeader(pl)
		rank, got = h.Rank, h.Step
	default:
		var h PartialHeader
		h, err = decodePartialHeader(pl)
		rank, got = h.Rank, h.Step
	}
	switch {
	case err != nil:
		return nil, fmt.Errorf("dist: step %d: peer %d: %w", step, r, err)
	case got != step:
		return nil, fmt.Errorf("%w: peer %d sent step %d during step %d", ErrStaleStep, r, got, step)
	case rank != uint32(r):
		return nil, fmt.Errorf("%w: peer %d's frame claims rank %d", ErrShardMismatch, r, rank)
	}
	return pl, nil
}

// Send frames a partial payload and writes it to peer `to` under a
// StepTimeout deadline: one hop of the dense rank chain.
func (c *Cluster) Send(step uint64, to int, payload []byte) error {
	c.frame = AppendFrame(c.frame[:0], payload)
	p := c.peers[to]
	p.conn.SetWriteDeadline(time.Now().Add(c.cfg.StepTimeout))
	if _, err := p.conn.Write(c.frame); err != nil {
		return fmt.Errorf("dist: step %d: sending to peer %d: %w", step, to, err)
	}
	return nil
}

// Recv reads and parses peer `from`'s partial payload for step under a
// StepTimeout deadline, with Exchange's freshness, provenance and abort
// checks. The view aliases an internal buffer valid until the next read
// from that peer.
func (c *Cluster) Recv(step uint64, from int) (PartialPayload, error) {
	c.peers[from].conn.SetReadDeadline(time.Now().Add(c.cfg.StepTimeout))
	pl, err := c.receive(step, from, magicPartial)
	if err != nil {
		return PartialPayload{}, err
	}
	return ParsePartial(pl)
}

// Abort tells every peer why this node is leaving, best-effort with a short
// deadline, so their next read fails with ErrPeerAborted and the reason
// instead of a bare connection reset. The trainer calls it before
// surfacing a step error; Close still must be called.
func (c *Cluster) Abort(reason string) {
	frame := AppendFrame(nil, AppendAbort(nil, uint32(c.rank), reason))
	deadline := time.Now().Add(time.Second)
	for _, p := range c.peers {
		if p == nil {
			continue
		}
		p.conn.SetWriteDeadline(deadline)
		p.conn.Write(frame)
	}
}

// BytesSent returns the total bytes written to all peers (handshake frames
// included); BytesReceived the mirror. Counters sit directly on the socket,
// so per-step deltas equal true bytes-on-wire — what the O(k) test asserts.
func (c *Cluster) BytesSent() int64 {
	var n int64
	for _, p := range c.peers {
		if p != nil {
			n += p.counter.sent.Load()
		}
	}
	return n
}

// BytesReceived returns the total bytes read from all peers.
func (c *Cluster) BytesReceived() int64 {
	var n int64
	for _, p := range c.peers {
		if p != nil {
			n += p.counter.recv.Load()
		}
	}
	return n
}

// PeerBytes returns one peer's sent/received byte counters (zero for our own
// rank).
func (c *Cluster) PeerBytes(rank int) (sent, received int64) {
	if rank < 0 || rank >= c.world || c.peers[rank] == nil {
		return 0, 0
	}
	return c.peers[rank].counter.sent.Load(), c.peers[rank].counter.recv.Load()
}

// Close shuts every peer connection and the listener. Idempotent.
func (c *Cluster) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	var errs []error
	for _, p := range c.peers {
		if p != nil {
			if err := p.conn.Close(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	if c.ln != nil {
		if err := c.ln.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
