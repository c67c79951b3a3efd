package serversim

import (
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/netsim"
	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
)

// establish records a completed handshake, placing it on the accept queue
// and dispatching workers.
func (s *Server) establish(peer tcpkit.PeerKey, mss uint16, solvedPuzzle bool) {
	e := tcpkit.Established{
		Peer:         peer,
		MSS:          mss,
		SolvedPuzzle: solvedPuzzle,
		CreatedAt:    s.eng.Now(),
	}
	if !s.acceptQ.Push(e) {
		// Full or duplicate peer; the handshake is silently lost.
		s.metrics.AcceptOverflow++
		return
	}
	if mss == 0 {
		mss = 536
	}
	c := s.newConn()
	c.peer, c.mss = peer, mss
	s.conns[peer] = c
	s.metrics.RecordEstablished(s.eng.Now(), peer)
	s.dispatchWorkers()
}

// newConn takes a record off the free list, or builds one with its
// callbacks bound.
func (s *Server) newConn() *conn {
	if n := len(s.freeConns); n > 0 {
		c := s.freeConns[n-1]
		s.freeConns[n-1] = nil
		s.freeConns = s.freeConns[:n-1]
		return c
	}
	c := &conn{}
	c.idleFn = func() {
		s.metrics.IdleTimeouts++
		s.closeConn(c)
	}
	c.serveFn = func() { s.served(c) }
	return c
}

// freeConn returns a closed record to the free list, cleared but for its
// bound callbacks.
func (s *Server) freeConn(c *conn) {
	*c = conn{idleFn: c.idleFn, serveFn: c.serveFn}
	s.freeConns = append(s.freeConns, c)
}

// dispatchWorkers lets free workers accept queued connections.
func (s *Server) dispatchWorkers() {
	for s.workersFree > 0 {
		e, ok := s.acceptQ.Pop()
		if !ok {
			return
		}
		c, live := s.conns[e.Peer]
		if !live {
			continue // torn down while queued
		}
		s.workersFree--
		c.hasWorker = true
		if c.pendingReq > 0 {
			s.serve(c)
			continue
		}
		// No request yet: the worker waits up to the idle timeout — the
		// resource a connection flood pins. Jitter desynchronises the
		// worker pool so releases do not arrive in lockstep waves.
		idle := time.Duration((0.75 + 0.5*s.rnd.Float64()) * float64(s.cfg.IdleTimeout))
		c.idleEv = s.eng.Schedule(idle, c.idleFn)
	}
}

// onData processes application data from an established peer.
func (s *Server) onData(c *conn, seg tcpkit.Segment) {
	if seg.PayloadLen <= 0 {
		return // pure ACK
	}
	if c.pendingReq > 0 {
		return // duplicate request; the first one wins
	}
	want := seg.Meta
	if want <= 0 {
		want = 1
	}
	c.pendingReq = want
	if c.hasWorker {
		c.idleEv.Cancel()
		c.idleEv = netsim.Timer{}
		s.serve(c)
	}
	// Otherwise the request is buffered until a worker accepts the
	// connection (dispatchWorkers will call serve).
}

// serve runs the application: after an exponential service time, the
// response of c.pendingReq bytes is written out in MSS-sized segments and
// the connection closes (the paper's gettext/size exchange).
func (s *Server) serve(c *conn) {
	service := time.Duration(s.rnd.ExpFloat64() * float64(s.cfg.ServiceTime))
	s.chargeHashes(s.cfg.PerRequestHashEquiv)
	c.serving = true
	s.eng.Schedule(service, c.serveFn)
}

// served ends a service period: it answers the request and closes the
// connection, or, when the connection was reset meanwhile, only frees
// the record.
func (s *Server) served(c *conn) {
	c.serving = false
	if s.conns[c.peer] != c {
		s.freeConn(c)
		return
	}
	s.metrics.RequestsServed++
	s.sendResponse(c, c.pendingReq)
	s.closeConn(c)
}

// sendResponse writes size bytes to the peer as MSS-sized segments, one
// packet train. The access link model paces actual delivery. BytesOut
// gets the train's total in one addition: every segment was counted at
// this instant, into this bucket, and sums of whole byte counts are exact.
func (s *Server) sendResponse(c *conn, size int) {
	if size <= 0 {
		return
	}
	mss := int(c.mss)
	if mss <= 0 || mss > s.cfg.MSS {
		mss = s.cfg.MSS
	}
	seg := tcpkit.Segment{
		Src: s.cfg.Addr, Dst: c.peer.IP,
		SrcPort: s.cfg.Port, DstPort: c.peer.Port,
		Flags:      tcpkit.FlagACK | tcpkit.FlagPSH,
		PayloadLen: mss,
	}
	count := (size + mss - 1) / mss
	last := size - (count-1)*mss
	wire := count*seg.WireSize() - mss + last
	s.metrics.BytesOut.Add(s.eng.Now(), float64(wire))
	s.net.SendTrain(seg, count, last)
}

// closeConn tears down a live connection and releases its worker if it
// holds one. The record is freed here unless a serve event is pending.
func (s *Server) closeConn(c *conn) {
	delete(s.conns, c.peer)
	c.idleEv.Cancel()
	hadWorker := c.hasWorker
	if !c.serving {
		s.freeConn(c)
	}
	if hadWorker {
		s.workersFree++
		s.dispatchWorkers()
	}
}

// OpenConns reports the number of live established connections.
func (s *Server) OpenConns() int { return len(s.conns) }

// FreeWorkers reports the idle worker count.
func (s *Server) FreeWorkers() int { return s.workersFree }
