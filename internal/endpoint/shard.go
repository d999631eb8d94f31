package endpoint

import (
	"net"
	"sync"
	"time"

	"github.com/tacktp/tack/internal/batchio"
	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/transport"
)

// opKind discriminates shard control messages.
type opKind uint8

const (
	opPacket   opKind = iota // inbound datagram for this shard's conns
	opRegister               // attach a freshly dialed connection
	opClose                  // user-initiated connection close
)

// shardMsg is one unit of work on a shard's channel.
type shardMsg struct {
	op   opKind
	ipk  *inPacket
	conn *Conn
}

// shard owns a partition of the endpoint's connections. The conns map and
// every connection's protocol state are touched exclusively by the
// shard's goroutine — the dispatch path is lock-free by ownership, and so
// is the egress queue: every output a connection emits lands here and is
// coalesced into one batched write per work burst.
type shard struct {
	ep *Endpoint
	// sock is the socket-group member this shard's egress is bound to:
	// every connection the shard owns replies through it
	// (reply-from-owner), regardless of which socket its inbound packets
	// arrive on.
	sock  *epSocket
	in    chan shardMsg
	conns map[uint32]*Conn

	// now is the shard's coarse wall clock, refreshed once per work burst
	// and lifecycle tick instead of per packet (time.Now in the dispatch
	// hot path costs a vDSO call per datagram; connection liveness
	// bookkeeping only needs millisecond granularity).
	now time.Time

	// lastSnap is when this shard last republished every connection's
	// observability snapshot (see snapshotRefresh).
	lastSnap time.Time

	// Egress queue: encoded datagrams awaiting one WriteBatch. egress and
	// egressBufs are parallel (egressBufs keeps the pool pointers so the
	// buffers can be recycled after the flush).
	wr         *batchio.Writer
	egress     []batchio.Message
	egressBufs []*[]byte

	// Stream-kick queue: application goroutines (stream Write/Read fired
	// from inside the mux lock) nudge the shard here. The tiny mutex plus a
	// non-blocking channel send keep the kick safe to call under any mux
	// lock: it can never block on the shard, and the shard never takes a
	// mux lock while holding kickMu.
	kickMu sync.Mutex
	kicked []*Conn
	kickCh chan struct{}
}

func newShard(ep *Endpoint, sock *epSocket) *shard {
	return &shard{
		ep:         ep,
		sock:       sock,
		in:         make(chan shardMsg, 1024),
		conns:      map[uint32]*Conn{},
		now:        time.Now(),
		wr:         sock.bconn.NewWriter(egressBatchSize),
		egress:     make([]batchio.Message, 0, egressBatchSize),
		egressBufs: make([]*[]byte, 0, egressBatchSize),
		kickCh:     make(chan struct{}, 1),
	}
}

// kick enqueues a connection for a stream-layer service pass on the shard
// goroutine. Callable from any goroutine, including under stream-mux locks:
// it never blocks and never re-enters connection state.
func (sh *shard) kick(c *Conn) {
	sh.kickMu.Lock()
	if !c.kickQueued {
		c.kickQueued = true
		sh.kicked = append(sh.kicked, c)
	}
	sh.kickMu.Unlock()
	select {
	case sh.kickCh <- struct{}{}:
	default: // a wakeup is already pending
	}
}

// processKicks services queued stream kicks: wake the sender's scheduler
// (new writable frames) and flush any urgent receive-window advertisement.
func (sh *shard) processKicks() {
	sh.kickMu.Lock()
	ks := sh.kicked
	sh.kicked = nil
	for _, c := range ks {
		c.kickQueued = false
	}
	sh.kickMu.Unlock()
	for _, c := range ks {
		if sh.conns[c.id] != c {
			continue // torn down since the kick was queued
		}
		c.advance()
		if c.snd != nil {
			c.snd.Kick()
		}
		if c.rcv != nil {
			c.rcv.FlushStreamWindows()
		}
	}
}

// run is the shard worker: it serializes inbound packets, control
// messages, and a 1 ms lifecycle tick (the same granularity the
// single-connection runner used for its virtual clock). Each wakeup
// drains a bounded burst of queued work before flushing the egress
// queue, so packets arriving together (and the acks they trigger) leave
// in one batched write.
func (sh *shard) run() {
	defer sh.ep.wg.Done()
	defer sh.shutdown()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-sh.ep.stop:
			return
		case m := <-sh.in:
			sh.now = time.Now()
			sh.handle(m)
		drain:
			// Bounded opportunistic drain: batch the rest of the burst
			// without starving the tick or spinning forever.
			for i := 0; i < 2*readBatchSize; i++ {
				select {
				case m := <-sh.in:
					sh.handle(m)
				default:
					break drain
				}
			}
			sh.flush()
		case <-sh.kickCh:
			sh.now = time.Now()
			sh.processKicks()
			sh.flush()
		case <-tick.C:
			sh.now = time.Now()
			sh.tick()
			sh.flush()
		}
	}
}

func (sh *shard) handle(m shardMsg) {
	switch m.op {
	case opPacket:
		sh.onPacket(&m.ipk.pkt, &m.ipk.from)
		sh.ep.putPacket(m.ipk)
	case opRegister:
		c := m.conn
		sh.conns[c.id] = c
		sh.ep.connAdded()
		c.advance()
		c.snd.Start()
	case opClose:
		sh.closeConn(m.conn)
	}
}

// enqueue appends one encoded datagram to the shard's egress queue,
// flushing when the batch is full. Runs only on the shard goroutine.
func (sh *shard) enqueue(p *packet.Packet, addr *net.UDPAddr) {
	bp := sh.ep.getBuf()
	*bp = appendFrameCRC(p.AppendMarshal((*bp)[:0]))
	sh.egress = append(sh.egress, batchio.Message{Buf: *bp, Addr: addr})
	sh.egressBufs = append(sh.egressBufs, bp)
	if len(sh.egress) >= egressBatchSize {
		sh.flush()
	}
}

// flush writes the egress queue with as few syscalls as the platform
// allows and recycles the datagram buffers. A datagram that errors is
// counted and skipped; the rest of the batch still goes out.
func (sh *shard) flush() {
	if len(sh.egress) == 0 {
		return
	}
	ms := sh.egress
	sh.ep.mBatchWrite.Observe(float64(len(ms)))
	sh.sock.mBatchWrite.Observe(float64(len(ms)))
	var txErrs int64
	for sent := 0; sent < len(ms); {
		n, err := sh.wr.WriteBatch(ms[sent:])
		sent += n
		if err != nil {
			sh.ep.mTxErrors.Inc()
			txErrs++
			sent++
		}
	}
	sh.sock.mTx.Add(int64(len(ms)) - txErrs)
	for _, bp := range sh.egressBufs {
		sh.ep.putBuf(bp)
	}
	sh.egress = sh.egress[:0]
	sh.egressBufs = sh.egressBufs[:0]
}

// onPacket is the demux hot path: route by ConnID, validate the source,
// dispatch into the sans-IO engine.
func (sh *shard) onPacket(p *packet.Packet, from *net.UDPAddr) {
	c := sh.conns[p.ConnID]
	if c == nil {
		sh.acceptSYN(p, from)
		return
	}
	if !addrEqual(from, c.peer) {
		// The connection is bound to its handshake-time source address; a
		// known ConnID arriving from elsewhere — a NAT rebind, a
		// Wi-Fi→cellular roam, or spoofing — must not be trusted as-is.
		// With migration enabled the new address is challenged to prove
		// it hosts the peer (see migration.go); otherwise, or after a
		// failed challenge, it is rejected. Observably: the counter, the
		// per-conn tally (the migration-storm anomaly detector's input),
		// and the trace event — recorded through the connection's flight
		// recorder — let an operator distinguish "peer's address changed"
		// from silent loss.
		sh.onForeignPacket(c, p, from)
		return
	}
	c.lastRecv = sh.now
	switch p.Type {
	case packet.TypePathChallenge:
		// The peer is validating this path (its view of our address
		// changed): echo the token back. Path frames never reach the
		// engines — they carry no sequence or acknowledgment state.
		sh.onPathChallenge(c, p)
		return
	case packet.TypePathResponse:
		// On-path response with no probe outstanding toward this address
		// (we only probe *foreign* addresses): stale or duplicated. Drop.
		return
	}
	c.advance()
	if c.snd != nil {
		c.snd.OnPacket(p)
	}
	if c.rcv != nil {
		c.rcv.OnPacket(p)
	}
	if c.closing && p.Type == packet.TypeFINACK {
		sh.remove(c, nil) // graceful close confirmed
		return
	}
	sh.postDispatch(c, p)
}

// acceptSYN creates an embryonic server connection for an unknown ConnID.
// Non-SYN packets for unknown connections are demux drops.
func (sh *shard) acceptSYN(p *packet.Packet, from *net.UDPAddr) {
	if p.Type != packet.TypeSYN {
		sh.ep.mDemuxDrops.Inc()
		return
	}
	// from aliases pooled reader storage that is recycled after dispatch;
	// the connection outlives it, so it keeps its own copy.
	c := sh.ep.newConn(cloneAddr(from))
	c.id = p.ConnID
	c.sh = sh
	if !sh.ep.reserveID(c.id, c) {
		// A live local connection already owns this id (e.g. a dialed conn
		// not yet registered); treat the SYN as unroutable.
		sh.ep.mDemuxDrops.Inc()
		return
	}
	tcfg := sh.ep.cfg.Transport
	tcfg.ConnID = c.id
	c.attachRecorder(&tcfg)
	c.rcv = transport.NewReceiver(c.loop, tcfg, c.output)
	if m := c.rcv.Streams(); m != nil {
		// Stream reads drain per-stream windows on application
		// goroutines; route window-update wakeups through the shard.
		m.SetKick(func() { c.sh.kick(c) })
	}
	sh.conns[c.id] = c
	sh.ep.connAdded()
	c.advance()
	c.rcv.OnPacket(p) // emits the SYNACK
	c.nextHS = sh.now.Add(sh.ep.cfg.handshakeRetryRTO(0))
}

// postDispatch advances connection lifecycle after a packet was handled:
// handshake completion (gating Accept), then transfer completion.
func (sh *shard) postDispatch(c *Conn, p *packet.Packet) {
	if !c.established {
		if c.snd != nil && c.snd.Established() {
			sh.establish(c)
		} else if c.rcv != nil && p.Type != packet.TypeSYN {
			// Server side: the first post-SYN packet (handshake IACK or
			// data) proves the peer saw our SYNACK — handshake complete.
			sh.establish(c)
			select {
			case sh.ep.accept <- c:
				sh.ep.mAccepts.Inc()
			default:
				// Accept backlog full: shed the connection rather than
				// hold state nobody will claim.
				sh.ep.mAcceptDrops.Inc()
				sh.remove(c, ErrClosed)
				return
			}
		}
	}
	sh.checkDone(c)
}

func (sh *shard) establish(c *Conn) {
	c.established = true
	sh.ep.mHandshake.Observe(time.Since(c.created).Seconds())
	c.estOnce.Do(func() { close(c.estCh) })
}

// checkDone detects transfer completion. Sender connections are removed
// as soon as every byte is acknowledged; receiver connections linger for
// completeLinger so tail retransmissions still get re-acknowledged.
func (sh *shard) checkDone(c *Conn) {
	if c.closing {
		return
	}
	if c.snd != nil && c.snd.Done() {
		sh.remove(c, nil)
		return
	}
	if c.rcv != nil && c.rcv.Complete() && c.completeAt.IsZero() {
		c.completeAt = time.Now()
	}
}

// tick drives every connection's virtual clock forward and applies the
// lifecycle policies: linger expiry, embryo reaping, idle timeout,
// keepalive. It also runs the anomaly detectors and republishes each
// connection's observability snapshot on the snapshotRefresh cadence.
func (sh *shard) tick() {
	now := sh.now
	ep := sh.ep
	refresh := now.Sub(sh.lastSnap) >= snapshotRefresh
	if refresh {
		sh.lastSnap = now
	}
	for _, c := range sh.conns {
		c.advance()
		sh.checkDone(c)
		if sh.conns[c.id] != c {
			continue // removed by checkDone
		}
		switch {
		case c.closing && now.After(c.closeDeadline):
			sh.remove(c, nil) // FINACK never came; tear down anyway
		case !c.completeAt.IsZero() && now.Sub(c.completeAt) > completeLinger:
			sh.remove(c, nil)
		case !c.established && c.snd != nil && c.snd.HandshakeFailed():
			// The SYN retry budget is exhausted: fail the dial now
			// instead of letting it idle out the full HandshakeTimeout.
			ep.mReaped.Inc()
			sh.remove(c, ErrHandshakeTimeout)
		case !c.established && c.rcv != nil && now.Sub(c.created) > ep.cfg.HandshakeTimeout:
			// Stale embryo: the SYN's sender never completed the
			// handshake. (Dialed connections are governed by Dial's own
			// handshake timer and SYN retry budget.)
			ep.mReaped.Inc()
			sh.remove(c, ErrHandshakeTimeout)
		case !c.established && c.rcv != nil && c.hsRetries < ep.cfg.handshakeRetryBudget() && now.After(c.nextHS):
			// The embryo's SYNACK (or the client's follow-up) appears
			// lost; re-emit on the same doubling schedule the client's
			// SYN retransmission uses, within the same retry budget.
			c.hsRetries++
			if c.rcv.RetransmitSYNACK() {
				ep.mSynackRetrans.Inc()
			}
			c.nextHS = now.Add(ep.cfg.handshakeRetryRTO(c.hsRetries))
		case ep.cfg.IdleTimeout > 0 && c.established && now.Sub(c.lastRecv) > ep.cfg.IdleTimeout:
			ep.mReaped.Inc()
			sh.remove(c, ErrIdleTimeout)
		default:
			sh.maybeKeepalive(c, now)
		}
		if sh.conns[c.id] != c {
			continue // removed by a lifecycle arm above
		}
		if c.migState == pathProbing {
			sh.migrationTick(c, now)
		}
		sh.detectAnomalies(c, now)
		if refresh || c.snap.Load() == nil {
			sh.refreshSnapshot(c)
		}
	}
}

// maybeKeepalive emits a liveness-probe IACK on dialed connections that
// have been transmit-idle for a keepalive interval.
func (sh *shard) maybeKeepalive(c *Conn, now time.Time) {
	ka := sh.ep.cfg.KeepaliveInterval
	if ka <= 0 || c.snd == nil || !c.established || now.Sub(c.lastSent) < ka {
		return
	}
	c.output(&packet.Packet{
		Type: packet.TypeIACK, ConnID: c.id, SentAt: c.vnow(),
		IACK: packet.IACKKeepalive, AckOldestPktSeq: c.snd.OldestOutstanding(),
	})
}

// closeConn implements a user-initiated Close on the owning shard. A
// mid-transfer sender closes gracefully (FIN, linger for FINACK); all
// other shapes tear down immediately.
func (sh *shard) closeConn(c *Conn) {
	if sh.conns[c.id] != c {
		c.finish(nil) // already removed (or never registered)
		return
	}
	if c.snd != nil && c.established && !c.snd.Done() && !c.closing {
		c.advance()
		c.output(&packet.Packet{
			Type: packet.TypeFIN, ConnID: c.id, SentAt: c.vnow(),
			Seq: c.snd.SentSeq(),
		})
		c.closing = true
		c.closeDeadline = time.Now().Add(closeLinger)
		c.finish(nil)
		return
	}
	sh.remove(c, nil)
}

// remove deletes the connection from the shard table (idempotent) and
// signals its terminal state.
func (sh *shard) remove(c *Conn, err error) {
	if sh.conns[c.id] == c {
		delete(sh.conns, c.id)
		sh.ep.connRemoved()
	}
	sh.ep.releaseID(c.id)
	c.finish(err)
}

// shutdown finishes every connection when the endpoint closes, then
// drains queued control messages so pending Dial/Close callers unblock.
func (sh *shard) shutdown() {
	for id, c := range sh.conns {
		delete(sh.conns, id)
		sh.ep.connRemoved()
		sh.ep.releaseID(id)
		c.finish(ErrClosed)
	}
	for {
		select {
		case m := <-sh.in:
			if m.ipk != nil {
				sh.ep.putPacket(m.ipk)
			}
			if m.conn != nil {
				sh.ep.releaseID(m.conn.id)
				m.conn.finish(ErrClosed)
			}
		default:
			return
		}
	}
}

// addrEqual compares UDP source addresses (IP + port; IPv4 and its
// v6-mapped form compare equal).
func addrEqual(a, b *net.UDPAddr) bool {
	return a != nil && b != nil && a.Port == b.Port && a.IP.Equal(b.IP)
}

// cloneAddr deep-copies a UDP address so it can outlive pooled reader
// storage.
func cloneAddr(a *net.UDPAddr) *net.UDPAddr {
	ip := make(net.IP, len(a.IP))
	copy(ip, a.IP)
	return &net.UDPAddr{IP: ip, Port: a.Port, Zone: a.Zone}
}
