// Package clientsim models benign clients: Poisson request generators that
// perform TCP handshakes against the simulated server, solve puzzle
// challenges on a modelled CPU (patched kernel) or ignore them (unpatched),
// retransmit SYNs, issue "gettext/size" requests, and measure connection
// times and throughput.
package clientsim

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/cpumodel"
	"github.com/tcppuzzles/tcppuzzles/internal/netsim"
	"github.com/tcppuzzles/tcppuzzles/internal/pzengine"
	"github.com/tcppuzzles/tcppuzzles/internal/stats"
	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
	"github.com/tcppuzzles/tcppuzzles/puzzle"
	"github.com/tcppuzzles/tcppuzzles/tcpopt"
)

// Config describes one client host.
type Config struct {
	// Addr is the client address.
	Addr [4]byte
	// ServerAddr and ServerPort locate the server.
	ServerAddr [4]byte
	ServerPort uint16

	// Rate is the Poisson request rate in requests/second; zero disables
	// the generator (connections are opened manually with Connect).
	Rate float64
	// StopAt ends the arrival process, which starts at time zero.
	StopAt time.Duration

	// RequestBytes is the size argument of the gettext/size request.
	RequestBytes int

	// Solves selects the patched kernel that solves puzzle challenges.
	Solves bool
	// SimulatedCrypto is read by nothing: a solving client always sends
	// the canonical simulated solution (pzengine.SimSolution) after its
	// CPU model has been charged the brute-force hash count.
	//
	// Deprecated: kept only so bench/ compiles; the next benchmark revision removes it.
	SimulatedCrypto bool
	// Device models the client CPU.
	Device cpumodel.Device
	// MaxSolveBacklog abandons a connection attempt when the CPU is
	// already committed further than this into the future — the point at
	// which a rational client drops out rather than queue more work.
	MaxSolveBacklog time.Duration

	// RTOs is the SYN retransmission schedule; the attempt fails after the
	// last timeout fires.
	RTOs []time.Duration
	// ResponseTimeout fails an established connection with no (complete)
	// response — how deceived clients discover they were never served.
	ResponseTimeout time.Duration

	// Seed drives the client's deterministic randomness. Every client
	// derives its RNG from its own seed alone, never from engine state.
	Seed int64
	// MetricBucket is the metric bucket width.
	MetricBucket time.Duration
}

func (c *Config) fillDefaults() {
	if c.ServerPort == 0 {
		c.ServerPort = 80
	}
	if c.RequestBytes == 0 {
		c.RequestBytes = 100_000
	}
	if c.Device.HashRate == 0 {
		c.Device = cpumodel.CPU1
	}
	if c.MaxSolveBacklog == 0 {
		c.MaxSolveBacklog = 3 * time.Second
	}
	if len(c.RTOs) == 0 {
		c.RTOs = []time.Duration{time.Second, 3 * time.Second, 7 * time.Second}
	}
	if c.ResponseTimeout == 0 {
		c.ResponseTimeout = 10 * time.Second
	}
	if c.MetricBucket == 0 {
		c.MetricBucket = time.Second
	}
	if c.StopAt == 0 {
		c.StopAt = 1<<62 - 1
	}
}

// connState tracks one connection attempt.
type connState int

const (
	stateSynSent connState = iota + 1
	stateSolving
	stateEstablished
	stateDone
)

// cconn is one connection attempt. Records are recycled through the
// client's free list; gen counts the times a record was freed, so work
// queued for one occupant (a solve) can tell it from the next.
type cconn struct {
	port      uint16
	isn       uint32
	state     connState
	gen       uint32
	startedAt time.Duration
	// timer is the one armed timeout: the SYN retransmission timer in
	// SYN_SENT, the response timeout in ESTABLISHED. timerFn, bound once
	// per record, dispatches on the state.
	timer     netsim.Timer
	timerFn   func()
	rtoIdx    int
	gotBytes  int
	wantBytes int
}

// Metrics collects client-side measurements.
type Metrics struct {
	// BytesIn feeds the client throughput plots.
	BytesIn *stats.Series
	// ConnTimes are handshake completion times in seconds (Fig. 6), with
	// the simulation times at which they completed for windowing.
	ConnTimes   []float64
	ConnTimesAt []time.Duration
	// Attempts/Successes/Failures per bucket drive the Fig. 15
	// %-established series.
	Attempts  *stats.Series
	Successes *stats.Series
	Failures  *stats.Series

	Started       uint64
	Established   uint64
	Completed     uint64
	Failed        uint64
	SolvesStarted uint64
	SolvesAborted uint64
	// SkippedBusy counts arrivals deferred because the kernel was still
	// solving earlier challenges (blocking connect).
	SkippedBusy  uint64
	RSTsReceived uint64
	RetriesSYN   uint64
}

// Client is a simulated benign host.
type Client struct {
	cfg Config
	eng *netsim.Engine
	net *netsim.Network
	rnd *rand.Rand

	isns     *tcpkit.ISNSource
	cpu      *cpumodel.CPU
	nextPort uint32
	// conns is keyed by the local port widened to uint32: Go's maps have
	// fast paths for 32- and 64-bit keys but none for 16-bit ones.
	conns map[uint32]*cconn
	free  []*cconn

	// solves holds the challenges queued on the CPU model; only its head
	// is an engine event. arrivalFn and solvedFn are c.arrival and c.solved
	// bound once, so re-arming them allocates no method value per event.
	solves              netsim.RunQueue[solveJob]
	arrivalFn, solvedFn func()

	metrics *Metrics
}

// solveJob is one queued solve: the connection waiting on it (the record
// and its generation at enqueue) and what its final ACK needs.
type solveJob struct {
	cc        *cconn
	gen       uint32
	serverISN uint32
	challenge puzzle.Challenge
}

// maxRate is the fastest Poisson rate New accepts: one arrival per
// nanosecond, the engine's resolution. Above it most gaps round to zero
// and the arrival process never leaves the instant it started at.
const maxRate = 1e9

// New builds a client and attaches it to the network.
func New(eng *netsim.Engine, network *netsim.Network, link netsim.LinkConfig, cfg Config) (*Client, error) {
	if !(cfg.Rate <= maxRate) {
		return nil, fmt.Errorf("clientsim: rate %v requests/s is NaN or above %v", cfg.Rate, maxRate)
	}
	cfg.fillDefaults()
	c := &Client{
		cfg:      cfg,
		eng:      eng,
		net:      network,
		rnd:      rand.New(rand.NewSource(cfg.Seed)),
		isns:     tcpkit.NewISNSource(cfg.Seed + 7),
		cpu:      cpumodel.NewCPU(cfg.Device, cfg.MetricBucket),
		nextPort: 10000,
		conns:    make(map[uint32]*cconn),
		metrics: &Metrics{
			BytesIn:   stats.NewSeries(cfg.MetricBucket),
			Attempts:  stats.NewSeries(cfg.MetricBucket),
			Successes: stats.NewSeries(cfg.MetricBucket),
			Failures:  stats.NewSeries(cfg.MetricBucket),
		},
	}
	c.arrivalFn, c.solvedFn = c.arrival, c.solved
	if err := network.Attach(c, link); err != nil {
		return nil, fmt.Errorf("clientsim: %w", err)
	}
	if cfg.Rate > 0 {
		c.eng.ScheduleAt(0, c.arrivalFn)
	}
	return c, nil
}

// Addr implements netsim.Node.
func (c *Client) Addr() netsim.Addr { return c.cfg.Addr }

// Metrics exposes the measurement state.
func (c *Client) Metrics() *Metrics { return c.metrics }

// CPU exposes the CPU model (Fig. 9 utilisation).
func (c *Client) CPU() *cpumodel.CPU { return c.cpu }

// arrival fires one Poisson arrival and schedules the next. While the
// patched kernel is busy solving, new requests wait rather than launch —
// the blocking-connect semantics of the kernel implementation (the app's
// connect() calls self-throttle to the solve rate).
func (c *Client) arrival() {
	if c.eng.Now() >= c.cfg.StopAt {
		return
	}
	if c.cfg.Solves && c.cpu.Backlog(c.eng.Now()) > c.cfg.MaxSolveBacklog {
		c.metrics.SkippedBusy++
	} else {
		c.Connect()
	}
	delay := time.Duration(c.rnd.ExpFloat64() / c.cfg.Rate * float64(time.Second))
	c.eng.Schedule(delay, c.arrivalFn)
}

// Connect opens one connection attempt.
func (c *Client) Connect() {
	port := uint16(1024 + c.nextPort%60000)
	c.nextPort++
	if _, busy := c.conns[uint32(port)]; busy {
		// Extremely long-lived attempt still holds the port; skip.
		c.metrics.Failed++
		return
	}
	cc := c.newConn()
	cc.port = port
	cc.isn = c.isns.Next()
	cc.state = stateSynSent
	cc.startedAt = c.eng.Now()
	cc.wantBytes = c.cfg.RequestBytes
	c.conns[uint32(port)] = cc
	c.metrics.Started++
	c.metrics.Attempts.Add(c.eng.Now(), 1)
	c.sendSYN(cc)
	c.armRTO(cc)
}

// synOptions announces the client's MSS 1460 and window scale 7:
// MarshalOptions of MSSOption(1460) and WScaleOption(7), NOP-padded.
// Read-only — every SYN carries this one area.
var synOptions = []byte{
	tcpopt.KindMSS, 4, 1460 >> 8, 1460 & 0xff,
	tcpopt.KindWScale, 3, 7, tcpopt.KindNOP,
}

func (c *Client) sendSYN(cc *cconn) {
	c.net.Send(tcpkit.Segment{
		Src: c.cfg.Addr, Dst: c.cfg.ServerAddr,
		SrcPort: cc.port, DstPort: c.cfg.ServerPort,
		Seq: cc.isn, Flags: tcpkit.FlagSYN, Window: 65535,
		Options: synOptions,
	})
}

// newConn takes a record off the free list, or builds one with its timer
// callback bound.
func (c *Client) newConn() *cconn {
	if n := len(c.free); n > 0 {
		cc := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		return cc
	}
	cc := &cconn{}
	cc.timerFn = func() { c.timeout(cc) }
	return cc
}

// release ends an attempt: the record leaves the port map and, cleared
// but for its callback and next generation, joins the free list.
func (c *Client) release(cc *cconn) {
	delete(c.conns, uint32(cc.port))
	*cc = cconn{state: stateDone, gen: cc.gen + 1, timerFn: cc.timerFn}
	c.free = append(c.free, cc)
}

func (c *Client) armRTO(cc *cconn) {
	if cc.rtoIdx >= len(c.cfg.RTOs) {
		c.fail(cc)
		return
	}
	cc.timer = c.eng.Schedule(c.cfg.RTOs[cc.rtoIdx], cc.timerFn)
}

// timeout fires the connection's armed timer: in SYN_SENT the RTO, which
// retransmits the SYN or, after the last one, fails the attempt; in
// ESTABLISHED the response timeout. Every state change cancels the timer,
// so it only ever fires in the state that armed it.
func (c *Client) timeout(cc *cconn) {
	switch cc.state {
	case stateSynSent:
		cc.rtoIdx++
		if cc.rtoIdx >= len(c.cfg.RTOs) {
			c.fail(cc)
			return
		}
		c.metrics.RetriesSYN++
		c.sendSYN(cc)
		c.armRTO(cc)
	case stateEstablished:
		// Response bytes delivered before now count before the attempt
		// fails; see HandleRun.
		c.net.Flush(c.cfg.Addr)
		c.fail(cc)
	}
}

// lookup returns the attempt a segment from the server is for, nil for
// any other segment.
func (c *Client) lookup(seg *tcpkit.Segment) *cconn {
	if seg.Src != c.cfg.ServerAddr || seg.SrcPort != c.cfg.ServerPort {
		return nil
	}
	return c.conns[uint32(seg.DstPort)]
}

// Handle implements netsim.Node.
func (c *Client) Handle(seg tcpkit.Segment) {
	cc := c.lookup(&seg)
	if cc == nil {
		return
	}
	switch {
	case seg.Flags.Has(tcpkit.FlagSYN | tcpkit.FlagACK):
		c.onSynAck(cc, seg)
	case seg.Flags.Has(tcpkit.FlagRST):
		c.metrics.RSTsReceived++
		c.fail(cc)
	case seg.Flags.Has(tcpkit.FlagACK) && seg.PayloadLen > 0:
		c.onData(cc, seg)
	}
}

func (c *Client) onSynAck(cc *cconn, seg tcpkit.Segment) {
	if cc.state != stateSynSent {
		return // duplicate
	}
	cc.timer.Cancel()
	serverISN := seg.Seq
	chOpt, challenged, _ := tcpopt.Lookup(seg.Options, tcpopt.KindChallenge)
	if challenged && c.cfg.Solves {
		blk, err := tcpopt.ParseChallenge(chOpt)
		if err != nil {
			c.fail(cc)
			return
		}
		if c.cpu.Backlog(c.eng.Now()) > c.cfg.MaxSolveBacklog {
			c.metrics.SolvesAborted++
			c.fail(cc)
			return
		}
		cc.state = stateSolving
		c.metrics.SolvesStarted++
		hashes := puzzle.SampleSolveHashes(c.rnd, blk.Challenge.Params)
		done := c.cpu.Charge(c.eng.Now(), float64(hashes))
		c.solves.Push(c.eng, done, solveJob{cc, cc.gen, serverISN, blk.Challenge}, c.solvedFn)
		return
	}
	// Plain SYN-ACK, or a challenge the unpatched client cannot read: ACK
	// immediately. (Unpatched stacks ignore unknown options.)
	c.finishHandshake(cc, serverISN, nil)
}

// solved fires when the CPU finishes the solve at the head of the queue;
// a connection that failed meanwhile (RST) gets no ACK, nor does whichever
// attempt has taken over its record since.
func (c *Client) solved() {
	job := c.solves.Pop(c.eng, c.solvedFn)
	if job.cc.gen != job.gen || job.cc.state != stateSolving {
		return
	}
	// The port may have had an earlier occupant whose response is still
	// arriving; its bytes were not this attempt's (see HandleRun).
	c.net.Flush(c.cfg.Addr)
	c.finishHandshake(job.cc, job.serverISN, &job.challenge)
}

// requestPayloadLen is the on-wire size of the gettext/size request.
const requestPayloadLen = 200

// finishHandshake sends the final ACK (with a solution block when ch is
// non-nil), marks the connection established from the client's view, and
// issues the application request.
func (c *Client) finishHandshake(cc *cconn, serverISN uint32, ch *puzzle.Challenge) {
	var opts []byte
	if ch != nil {
		// The hash count was charged to the CPU model before the solve
		// completed; the bits are the canonical simulated solution.
		if raw, err := pzengine.AckOptions(pzengine.SimSolution(*ch)); err == nil {
			opts = raw
		}
	}
	now := c.eng.Now()
	c.net.Send(tcpkit.Segment{
		Src: c.cfg.Addr, Dst: c.cfg.ServerAddr,
		SrcPort: cc.port, DstPort: c.cfg.ServerPort,
		Seq: cc.isn + 1, Ack: serverISN + 1,
		Flags: tcpkit.FlagACK, Window: 65535,
		Options: opts,
	})
	cc.state = stateEstablished
	c.metrics.Established++
	c.metrics.ConnTimes = append(c.metrics.ConnTimes, (now - cc.startedAt).Seconds())
	c.metrics.ConnTimesAt = append(c.metrics.ConnTimesAt, now)
	// Issue the gettext/size request.
	c.net.Send(tcpkit.Segment{
		Src: c.cfg.Addr, Dst: c.cfg.ServerAddr,
		SrcPort: cc.port, DstPort: c.cfg.ServerPort,
		Seq: cc.isn + 1, Ack: serverISN + 1,
		Flags:      tcpkit.FlagACK | tcpkit.FlagPSH,
		PayloadLen: requestPayloadLen,
		Meta:       cc.wantBytes,
	})
	cc.timer = c.eng.Schedule(c.cfg.ResponseTimeout, cc.timerFn)
}

// HandleRun implements netsim.DeferNode: n response segments before
// their train's last, delivered gap apart from at and handed over later.
// It counts the bytes as n onData calls would, looking the connection up
// once and adding to BytesIn once per bucket. That is exact because what
// it changes — the connection's byte count and BytesIn, which sums whole
// wire sizes, exact in any order and grouping — is read only in Handle,
// and what it reads, the port's connection and its state, changes
// outside Handle only after a Flush: when the response timeout fails an
// attempt, and when a solve establishes one. A segment that would
// complete a response is the train's last, which netsim always delivers
// through Handle.
func (c *Client) HandleRun(seg tcpkit.Segment, at, gap time.Duration, n int) {
	cc := c.lookup(&seg)
	switch {
	case cc == nil:
		return
	case seg.Flags.Has(tcpkit.FlagSYN|tcpkit.FlagACK) || seg.Flags.Has(tcpkit.FlagRST):
		panic("clientsim: a handshake or reset segment was deferred")
	case !seg.Flags.Has(tcpkit.FlagACK) || seg.PayloadLen == 0 || cc.state != stateEstablished:
		return
	}
	cc.gotBytes += n * seg.PayloadLen
	if cc.gotBytes >= cc.wantBytes {
		panic("clientsim: a deferred segment completed a response")
	}
	c.metrics.BytesIn.AddRun(at, gap, n, float64(seg.WireSize()))
}

func (c *Client) onData(cc *cconn, seg tcpkit.Segment) {
	if cc.state != stateEstablished {
		return
	}
	cc.gotBytes += seg.PayloadLen
	c.metrics.BytesIn.Add(c.eng.Now(), float64(seg.WireSize()))
	if cc.gotBytes >= cc.wantBytes {
		cc.timer.Cancel()
		c.metrics.Completed++
		c.metrics.Successes.Add(c.eng.Now(), 1)
		c.release(cc)
	}
}

func (c *Client) fail(cc *cconn) {
	if cc.state == stateDone {
		return
	}
	cc.timer.Cancel()
	c.metrics.Failed++
	c.metrics.Failures.Add(c.eng.Now(), 1)
	c.release(cc)
}
