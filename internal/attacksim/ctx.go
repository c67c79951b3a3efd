package attacksim

import (
	"math/rand"
	"time"

	"github.com/tcppuzzles/tcppuzzles/attack"
	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
)

// botCtx is the bot's implementation of attack.BotCtx: the narrow facade
// an attack strategy sees. Send primitives fold in the attack-rate
// accounting (Sent / AcksSent) so every strategy's packets land in the
// measured-rate figures the same way.
type botCtx struct{ b *Bot }

var _ attack.BotCtx = botCtx{}

// Now implements attack.BotCtx.
func (c botCtx) Now() time.Duration { return c.b.eng.Now() }

// Rand implements attack.BotCtx.
func (c botCtx) Rand() *rand.Rand { return c.b.rnd }

// Addr implements attack.BotCtx.
func (c botCtx) Addr() [4]byte { return c.b.cfg.Addr }

// ServerAddr implements attack.BotCtx.
func (c botCtx) ServerAddr() [4]byte { return c.b.cfg.ServerAddr }

// ServerPort implements attack.BotCtx.
func (c botCtx) ServerPort() uint16 { return c.b.cfg.ServerPort }

// AttackWindow implements attack.BotCtx.
func (c botCtx) AttackWindow() (start, stop time.Duration) {
	return c.b.cfg.StartAt, c.b.cfg.StopAt
}

// Solves implements attack.BotCtx.
func (c botCtx) Solves() bool { return c.b.cfg.Solves }

// SimulatedCrypto implements attack.BotCtx.
func (c botCtx) SimulatedCrypto() bool { return c.b.cfg.SimulatedCrypto }

// MaxSolveBacklog implements attack.BotCtx.
func (c botCtx) MaxSolveBacklog() time.Duration { return c.b.cfg.MaxSolveBacklog }

// NextISN implements attack.BotCtx.
func (c botCtx) NextISN() uint32 { return c.b.isns.Next() }

// NextPort implements attack.BotCtx.
func (c botCtx) NextPort() uint16 {
	port := uint16(1024 + c.b.nextPort%60000)
	c.b.nextPort++
	return port
}

// ExpectSynAck implements attack.BotCtx.
func (c botCtx) ExpectSynAck(port uint16, isn uint32) { c.b.awaiting[uint32(port)] = isn }

// EmitAttack implements attack.BotCtx.
func (c botCtx) EmitAttack(seg tcpkit.Segment) {
	c.b.metrics.Sent.Add(c.b.eng.Now(), 1)
	c.b.net.Send(seg)
}

// EmitSpoofed implements attack.BotCtx: the packet leaves through the
// bot's own uplink whatever its forged source claims.
func (c botCtx) EmitSpoofed(seg tcpkit.Segment) {
	c.b.metrics.Sent.Add(c.b.eng.Now(), 1)
	c.b.net.SendFrom(c.b.cfg.Addr, seg)
}

// SendHandshakeAck implements attack.BotCtx.
func (c botCtx) SendHandshakeAck(port uint16, isn, serverISN uint32, opts []byte) {
	c.b.metrics.AcksSent.Add(c.b.eng.Now(), 1)
	c.b.metrics.BelievedEstablished++
	c.b.net.Send(tcpkit.Segment{
		Src: c.b.cfg.Addr, Dst: c.b.cfg.ServerAddr,
		SrcPort: port, DstPort: c.b.cfg.ServerPort,
		Seq: isn + 1, Ack: serverISN + 1,
		Flags:   tcpkit.FlagACK,
		Options: opts,
	})
}

// Solve implements attack.BotCtx: charge the CPU model and queue the
// SYN-ACK behind the solves already on it.
func (c botCtx) Solve(hashes float64, sa attack.SynAck) {
	b := c.b
	job := solveJob{port: sa.Port, isn: sa.ISN, serverISN: sa.ServerISN}
	job.n = uint8(copy(job.challenge[:], sa.Challenge.Data))
	b.solves.Push(b.eng, b.cpu.Charge(b.eng.Now(), hashes), job, b.solvedFn)
}

// CPUBacklog implements attack.BotCtx.
func (c botCtx) CPUBacklog() time.Duration { return c.b.cpu.Backlog(c.b.eng.Now()) }

// Metrics implements attack.BotCtx.
func (c botCtx) Metrics() *attack.Metrics { return c.b.metrics }
