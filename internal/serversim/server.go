package serversim

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"github.com/tcppuzzles/tcppuzzles/defense"
	"github.com/tcppuzzles/tcppuzzles/internal/cpumodel"
	"github.com/tcppuzzles/tcppuzzles/internal/netsim"
	"github.com/tcppuzzles/tcppuzzles/internal/pzengine"
	"github.com/tcppuzzles/tcppuzzles/internal/srvmetrics"
	"github.com/tcppuzzles/tcppuzzles/internal/syncache"
	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
	"github.com/tcppuzzles/tcppuzzles/puzzle"
	"github.com/tcppuzzles/tcppuzzles/syncookie"
)

// Metrics is the server measurement state (defined in internal/srvmetrics
// so defense plugins account into it through the ServerCtx facade).
type Metrics = srvmetrics.Metrics

// conn is a server-side established connection. Records are recycled
// through the server's free list; idleFn and serveFn are the record's
// idle-timeout and end-of-service callbacks, bound once when the record is
// first built.
type conn struct {
	peer       tcpkit.PeerKey
	mss        uint16
	hasWorker  bool
	pendingReq int // requested response bytes, 0 if no request yet
	idleEv     netsim.Timer
	// serving is set while a serve event is pending. Such a record goes
	// back to the free list only when that event fires, never from
	// closeConn, so the event cannot act on the record's next occupant.
	serving bool

	idleFn, serveFn func()
}

// Server is the simulated protected server node.
type Server struct {
	cfg Config
	eng *netsim.Engine
	net *netsim.Network
	rnd *rand.Rand

	issuer  *puzzle.Issuer
	engine  pzengine.Engine
	jar     *syncookie.Jar
	cache   *syncache.Cache // built on first use; nil for most defenses
	defense defense.Defense

	listenQ *tcpkit.ListenQueue
	acceptQ *tcpkit.AcceptQueue
	isns    *tcpkit.ISNSource
	cpu     *cpumodel.CPU

	workersFree   int
	conns         map[tcpkit.PeerKey]*conn
	freeConns     []*conn
	protLatched   bool
	puzzles       bool // the defense's Info.Puzzles; in protLatched's padding
	latchLoadedAt time.Duration

	// chunk is the unused tail of the bump buffer carve hands out.
	chunk []byte

	metrics *Metrics
}

// New builds a server on the given engine and network and attaches it. The
// protection strategy is instantiated from the defense registry by
// cfg.Defense; unknown names fail with the registered alternatives.
func New(eng *netsim.Engine, network *netsim.Network, link netsim.LinkConfig, cfg Config) (*Server, error) {
	cfg.fillDefaults()
	s := &Server{
		cfg:         cfg,
		eng:         eng,
		net:         network,
		rnd:         rand.New(rand.NewSource(cfg.Seed)),
		isns:        tcpkit.NewISNSource(cfg.Seed + 1),
		cpu:         cpumodel.NewCPU(cpumodel.Server, cfg.MetricBucket),
		workersFree: max(cfg.Workers, 0),
		conns:       make(map[tcpkit.PeerKey]*conn),
		metrics:     srvmetrics.New(cfg.MetricBucket),
	}
	simClock := func() time.Time { return time.Unix(0, 0).Add(eng.Now()) }
	// The secret comes from the seed, all SecretLen bytes of it, so the
	// preimage bits on the wire repeat run to run.
	var secret [puzzle.SecretLen]byte
	binary.BigEndian.PutUint64(secret[:], uint64(cfg.Seed))
	issuerOpts := []puzzle.IssuerOption{
		puzzle.WithParams(cfg.PuzzleParams),
		puzzle.WithMaxAge(cfg.PuzzleMaxAge),
		puzzle.WithClock(simClock),
		puzzle.WithSecret(secret[:]),
	}
	jarOpts := []syncookie.Option{syncookie.WithClock(simClock)}
	if cfg.SimulatedCrypto {
		// The CPU model is charged the hash counts; the host computes none.
		issuerOpts = append(issuerOpts, puzzle.WithSimulatedPreimage(s.carve))
		jarOpts = append(jarOpts, syncookie.WithSimulatedHash())
	}
	issuer, err := puzzle.NewIssuer(issuerOpts...)
	if err != nil {
		return nil, fmt.Errorf("serversim: issuer: %w", err)
	}
	s.issuer = issuer
	if cfg.SimulatedCrypto {
		s.engine = pzengine.Sim{Is: issuer}
	} else {
		s.engine = pzengine.Real{Is: issuer}
	}
	s.jar = syncookie.New([]byte{byte(cfg.Seed)}, jarOpts...)
	s.listenQ = tcpkit.NewListenQueue(cfg.Backlog, func(n int) {
		s.metrics.ListenLen.Set(eng.Now(), float64(n))
	})
	s.acceptQ = tcpkit.NewAcceptQueue(cfg.AcceptBacklog, func(n int) {
		s.metrics.AcceptLen.Set(eng.Now(), float64(n))
	})
	info, newDefense, err := defense.Lookup(cfg.Defense)
	if err != nil {
		return nil, fmt.Errorf("serversim: %w", err)
	}
	s.puzzles = info.Puzzles
	s.defense = newDefense(s.ctx())
	if err := network.Attach(s, link); err != nil {
		return nil, fmt.Errorf("serversim: %w", err)
	}
	s.scheduleSweep()
	return s, nil
}

// Addr implements netsim.Node.
func (s *Server) Addr() netsim.Addr { return s.cfg.Addr }

// Config returns the server configuration (after defaulting).
func (s *Server) Config() Config { return s.cfg }

// Metrics exposes the measurement state.
func (s *Server) Metrics() *Metrics { return s.metrics }

// CPU exposes the server CPU model (utilisation plots).
func (s *Server) CPU() *cpumodel.CPU { return s.cpu }

// Issuer exposes the puzzle issuer for runtime retuning (sysctl analogue).
func (s *Server) Issuer() *puzzle.Issuer { return s.issuer }

// Defense exposes the instantiated protection strategy.
func (s *Server) Defense() defense.Defense { return s.defense }

// ListenLen and AcceptLen report current queue occupancy.
func (s *Server) ListenLen() int { return s.listenQ.Len() }

// AcceptLen reports current accept-queue occupancy.
func (s *Server) AcceptLen() int { return s.acceptQ.Len() }

// scheduleSweep expires half-open state once per second and gives the
// defense strategy its periodic tick.
func (s *Server) scheduleSweep() {
	s.eng.Schedule(time.Second, func() {
		s.listenQ.Expire(s.eng.Now())
		if s.cache != nil {
			s.cache.Expire(s.eng.Now())
		}
		s.defense.OnTick(s.ctx())
		s.scheduleSweep()
	})
}

// Handle implements netsim.Node.
func (s *Server) Handle(seg tcpkit.Segment) {
	if seg.DstPort != s.cfg.Port {
		return
	}
	s.metrics.BytesIn.Add(s.eng.Now(), float64(seg.WireSize()))
	switch {
	case seg.Flags.Has(tcpkit.FlagSYN) && !seg.Flags.Has(tcpkit.FlagACK):
		s.onSYN(seg)
	case seg.Flags.Has(tcpkit.FlagRST):
		s.onRST(seg)
	case seg.Flags.Has(tcpkit.FlagACK):
		s.onACK(seg)
	}
}

// send transmits a segment from the server, accounting outgoing bytes.
func (s *Server) send(seg tcpkit.Segment) {
	s.metrics.BytesOut.Add(s.eng.Now(), float64(seg.WireSize()))
	s.net.Send(seg)
}

// carve returns n fresh bytes of the server's bump buffer: 4 KiB chunks,
// handed out front to back and never reused, so a carved slice is as
// immutable as one from make and the collector frees a chunk when the last
// packet or queued solve pointing into it is gone.
func (s *Server) carve(n int) []byte {
	if n > len(s.chunk) {
		s.chunk = make([]byte, max(n, 4096))
	}
	b := s.chunk[:n:n]
	s.chunk = s.chunk[n:]
	return b
}

// chargeHashes runs hash work on the server CPU.
func (s *Server) chargeHashes(n float64) {
	s.cpu.Charge(s.eng.Now(), n)
}
