package serversim

import (
	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
	"github.com/tcppuzzles/tcppuzzles/tcpopt"
)

// onSYN counts and parses a connection request, then hands it to the
// configured defense strategy. The strategy decides between the stateful
// path (NormalSYN), a stateless reply (cookies, challenges, cache spill),
// or a drop — see package defense for the registered behaviours.
func (s *Server) onSYN(seg tcpkit.Segment) {
	s.metrics.SYNsReceived++
	mss, wscale := parseSynOptions(seg.Options)
	s.defense.OnSYN(s.ctx(), seg, mss, wscale)
}

// overloadActive implements the §5 controller latch shared by every
// defense that keys off queue pressure. It engages once either queue
// climbs past its high-water mark (1/16 of capacity — the sysctl-style
// watermark that bounds how much of the queue an attack can claim before
// the defense reacts) and releases only after both queues have stayed
// below the low-water mark (1/32) for a full SynAckTimeout window. In
// the kernel implementation equivalent stickiness comes from the flood
// keeping the listen queue saturated with half-open state for the SYN-ACK
// retransmission lifetime (Fig. 10); the release window reproduces the
// ~30 s post-attack recovery the paper measures. See DESIGN.md for the
// substitution rationale.
func (s *Server) overloadActive() bool {
	if s.cfg.AlwaysChallenge {
		return true
	}
	now := s.eng.Now()
	if s.listenQ.Len() >= high(s.cfg.Backlog) || s.acceptQ.Len() >= high(s.cfg.AcceptBacklog) {
		s.protLatched = true
		s.latchLoadedAt = now
		return true
	}
	if !s.protLatched {
		return false
	}
	if s.listenQ.Len() >= low(s.cfg.Backlog) || s.acceptQ.Len() >= low(s.cfg.AcceptBacklog) {
		s.latchLoadedAt = now
		return true
	}
	if now-s.latchLoadedAt >= s.cfg.SynAckTimeout {
		s.protLatched = false
	}
	return s.protLatched
}

// high and low are the controller watermarks. Queue occupancy is near zero
// in normal operation (the worker pool drains the accept queue and
// handshakes clear the listen queue within an RTT), so even 1/16 of
// capacity indicates overload; engaging there bounds how many queue slots
// an attack claims per controller cycle.
func high(capacity int) int { return max(capacity/16, 1) }
func low(capacity int) int  { return max(capacity/32, 1) }

// normalSYN allocates half-open state and replies SYN-ACK, dropping the SYN
// when the backlog is exhausted.
func (s *Server) normalSYN(seg tcpkit.Segment, mss uint16, wscale uint8) {
	peer := tcpkit.PeerOf(seg)
	serverISN := s.isns.Next()
	half := tcpkit.HalfOpen{
		Peer:      peer,
		ClientISN: seg.Seq,
		ServerISN: serverISN,
		MSS:       mss,
		WScale:    wscale,
		CreatedAt: s.eng.Now(),
		ExpiresAt: s.eng.Now() + s.cfg.SynAckTimeout,
	}
	if !s.listenQ.Add(half) {
		s.metrics.SYNsDropped++
		return
	}
	s.metrics.PlainSynAcks.Add(s.eng.Now(), 1)
	s.send(s.synAck(seg, serverISN, nil))
}

// synAck builds a SYN-ACK for a SYN.
func (s *Server) synAck(syn tcpkit.Segment, serverISN uint32, opts []byte) tcpkit.Segment {
	if opts == nil {
		opts = defaultSynAckOptions
	}
	return tcpkit.Segment{
		Src: s.cfg.Addr, Dst: syn.Src,
		SrcPort: s.cfg.Port, DstPort: syn.SrcPort,
		Seq: serverISN, Ack: syn.Seq + 1,
		Flags:   tcpkit.FlagSYN | tcpkit.FlagACK,
		Window:  65535,
		Options: opts,
	}
}

// onACK processes a bare ACK: data on an established connection, stateful
// handshake completion, then whatever stateless completion path the
// defense strategy provides (cookies, puzzle solutions, cache entries).
// An ACK no layer claims is RST-answered when it carries data.
func (s *Server) onACK(seg tcpkit.Segment) {
	peer := tcpkit.PeerOf(seg)

	if c, ok := s.conns[peer]; ok {
		s.onData(c, seg)
		return
	}
	if half, ok := s.listenQ.Get(peer); ok {
		s.completeStateful(seg, half)
		return
	}
	if s.defense.OnACK(s.ctx(), seg) {
		return
	}
	// No state, no defense path: an ACK for a connection we do not
	// know. If it carries data the peer was deceived or stale; reset.
	if seg.PayloadLen > 0 {
		s.sendRST(seg)
	}
}

// completeStateful finishes a handshake that has listen-queue state.
func (s *Server) completeStateful(seg tcpkit.Segment, half tcpkit.HalfOpen) {
	peer := half.Peer
	if s.acceptQ.Full() {
		// The accept queue has no room: keep the half-open entry (the
		// client may retransmit) and drop the ACK.
		s.metrics.AcceptOverflow++
		return
	}
	s.listenQ.Remove(peer)
	s.establish(peer, half.MSS, false)
}

// onRST tears down any established state for the peer, releasing its
// worker.
func (s *Server) onRST(seg tcpkit.Segment) {
	peer := tcpkit.PeerOf(seg)
	if c, ok := s.conns[peer]; ok {
		s.closeConn(c)
	}
	s.listenQ.Remove(peer)
}

// sendRST signals that no connection exists.
func (s *Server) sendRST(seg tcpkit.Segment) {
	s.metrics.RSTsSent++
	s.send(tcpkit.Segment{
		Src: s.cfg.Addr, Dst: seg.Src,
		SrcPort: s.cfg.Port, DstPort: seg.SrcPort,
		Seq: seg.Ack, Ack: seg.Seq,
		Flags: tcpkit.FlagRST,
	})
}

// parseSynOptions extracts MSS and window scale from SYN options, with the
// kernel defaults for a missing or ill-formed option and for both when the
// area is malformed anywhere.
func parseSynOptions(raw []byte) (mss uint16, wscale uint8) {
	mss, wscale = 536, 0
	o, ok, err := tcpopt.Lookup(raw, tcpopt.KindMSS)
	if err != nil {
		return mss, wscale
	}
	if ok {
		if v, err := tcpopt.ParseMSS(o); err == nil {
			mss = v
		}
	}
	if o, ok, _ := tcpopt.Lookup(raw, tcpopt.KindWScale); ok {
		if v, err := tcpopt.ParseWScale(o); err == nil {
			wscale = v
		}
	}
	return mss, wscale
}

// defaultSynAckOptions advertises the server's MSS 1460 and window scale
// 7: MarshalOptions of MSSOption(1460) and WScaleOption(7), NOP-padded.
// Read-only — every plain SYN-ACK carries this one area.
var defaultSynAckOptions = []byte{
	tcpopt.KindMSS, 4, 1460 >> 8, 1460 & 0xff,
	tcpopt.KindWScale, 3, 7, tcpopt.KindNOP,
}
