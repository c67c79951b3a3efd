// Speculative shard execution: an optimistic alternative to the
// conservative lock-step windows of shard.go that runs every shard a full
// quantum past its per-pair lookahead bound, detects the cross-shard
// packets that would have violated causality, and rolls the affected
// shards back to the quantum's opening instant and re-executes them with
// those packets injected — iterating to a fixed point before committing.
//
// The fixed point is unique and equal to the canonical serial execution:
// timestamps strictly increase along every causal chain (an uplink
// serialisation is always positive), so re-executing a shard with the
// true set of incoming packets can only change its outgoing packets at
// strictly later times, and the iteration converges from the front of the
// quantum backwards. Shards whose incoming lookahead covers the whole
// quantum cannot receive an intra-quantum packet at all (any packet sent
// at or after the quantum's start lands at least a lookahead later) and
// are exempt from snapshotting entirely.
//
// Determinism: every decision in this file — quantum bounds, the at-risk
// set, the gathered packet sets (canonically sorted), rollback choices,
// and the bailout — is a pure function of simulation state, so a
// speculative run is byte-identical to the conservative oracle, which is
// exactly what the differential harness (shard tests, the experiments
// determinism matrix, and FuzzSpeculativeEquivalence) pins.
package netsim

import (
	"bytes"
	"sort"
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
)

// Snapshotter is implemented by application state attached to a network —
// nodes, or auxiliary drivers registered with RegisterAuxState — that
// speculative execution must be able to roll back. SnapshotState returns
// an opaque snapshot; RestoreState rewinds the application to it. A
// snapshot may be restored more than once. Nodes that do not implement
// Snapshotter are captured generically with CaptureState (they must be
// pointers for the generic capture to see their state).
type Snapshotter interface {
	SnapshotState() any
	RestoreState(state any)
}

// reflectState is the default Snapshotter for nodes that do not bring
// their own: a generic deep capture of everything reachable from the
// node pointer.
type reflectState struct{ root any }

func (r reflectState) SnapshotState() any     { return CaptureState(r.root) }
func (r reflectState) RestoreState(state any) { state.(*StateSnap).Restore() }

// SetSpeculative switches Run between the conservative window protocol
// (default) and speculative execution. Purely an execution knob: results
// are byte-identical either way. Speculation silently falls back to the
// conservative path when any packet tap is registered (a tap would
// observe packets from rolled-back executions).
func (n *Network) SetSpeculative(on bool) { n.speculative = on }

// RegisterAuxState attaches application state that lives on addr's home
// shard but is not an attached Node — e.g. a macro-source driver — so
// speculative rollbacks rewind it together with the shard. Must be called
// before the simulation runs.
func (n *Network) RegisterAuxState(addr Addr, s Snapshotter) {
	n.aux = append(n.aux, auxState{shard: n.homeShard(addr), s: s})
}

type auxState struct {
	shard int
	s     Snapshotter
}

// Speculation tuning. The quantum is how far past the opening instant
// every shard runs per round: wide enough to amortise a snapshot over
// many events, bounded so a mis-speculation does not discard too much
// work. Both only shape performance — never results.
const (
	defaultSpecQuantumFactor = 8
	minSpecQuantum           = time.Millisecond
	defaultSpecMaxIters      = 8
)

// specQuantumFor derives the speculation quantum from the per-shard
// lookaheads: a multiple of the tightest bounded lookahead, floored so
// zero-lookahead topologies (where the conservative path degenerates to a
// serial merge) still speculate in useful strides.
func (n *Network) specQuantumFor(la []time.Duration) time.Duration {
	if n.specQuantum > 0 {
		return n.specQuantum
	}
	min := noLookahead
	for _, l := range la {
		if l != noLookahead && l < min {
			min = l
		}
	}
	if min == noLookahead {
		// No shard can receive cross-shard traffic: one unbounded round.
		return noLookahead
	}
	if min < minSpecQuantum {
		min = minSpecQuantum
	}
	if min > noLookahead/defaultSpecQuantumFactor {
		return noLookahead
	}
	return min * defaultSpecQuantumFactor
}

// specShardState is the per-shard restoration inventory, built once per
// run: the ports, stores, and application snapshotters living on each
// shard.
type specShardState struct {
	ports  []*port
	stores []*SourceStore
	apps   []Snapshotter
}

func (n *Network) initSpec() {
	if n.spec != nil {
		return
	}
	n.spec = make([]specShardState, len(n.shards))
	seen := make(map[Node]bool)
	for _, p := range n.ports {
		st := &n.spec[p.shard]
		st.ports = append(st.ports, p)
		if p.node == nil || seen[p.node] {
			continue
		}
		seen[p.node] = true
		if s, ok := p.node.(Snapshotter); ok {
			st.apps = append(st.apps, s)
		} else {
			st.apps = append(st.apps, reflectState{root: p.node})
		}
	}
	for _, s := range n.stores {
		n.spec[s.shard].stores = append(n.spec[s.shard].stores, s)
	}
	for _, a := range n.aux {
		n.spec[a.shard].apps = append(n.spec[a.shard].apps, a.s)
	}
}

// shardSnap is one shard's complete committed state: engine, per-port
// link/sequence state, per-store slot state, the shard's unroutable
// count, and every application snapshot.
type shardSnap struct {
	eng        *engineSnap
	ports      []portSnap
	stores     []storeSnap
	apps       []any
	unroutable uint64
}

type portSnap struct {
	p        *port
	up, down xmitter
	msgSeq   uint64
}

type storeSnap struct {
	s                  *SourceStore
	upBusy, downBusy   []time.Duration
	msgSeq             []uint64
	upStats, downStats LinkStats
}

func (n *Network) snapshotShard(j int) *shardSnap {
	st := &n.spec[j]
	sp := &shardSnap{
		eng:        n.shards[j].eng.snapshot(),
		ports:      make([]portSnap, 0, len(st.ports)),
		unroutable: n.unroutableShard[j],
	}
	for _, p := range st.ports {
		sp.ports = append(sp.ports, portSnap{p: p, up: p.up, down: p.down, msgSeq: p.msgSeq})
	}
	for _, s := range st.stores {
		sp.stores = append(sp.stores, storeSnap{
			s:        s,
			upBusy:   append([]time.Duration(nil), s.upBusy...),
			downBusy: append([]time.Duration(nil), s.downBusy...),
			msgSeq:   append([]uint64(nil), s.msgSeq...),
			upStats:  s.upStats, downStats: s.downStats,
		})
	}
	for _, a := range st.apps {
		sp.apps = append(sp.apps, a.SnapshotState())
	}
	return sp
}

// restoreShard rewinds shard j to sp and clears its outboxes (everything
// in them was produced by the discarded execution). Runs single-threaded
// on the coordinator.
func (n *Network) restoreShard(j int, sp *shardSnap) {
	s := n.shards[j]
	n.wastedEvents += s.eng.fired - sp.eng.fired
	n.rollbacks++
	s.eng.restore(sp.eng)
	for i := range sp.ports {
		p := sp.ports[i].p
		p.up = sp.ports[i].up
		p.down = sp.ports[i].down
		p.msgSeq = sp.ports[i].msgSeq
	}
	for i := range sp.stores {
		st := sp.stores[i].s
		copy(st.upBusy, sp.stores[i].upBusy)
		copy(st.downBusy, sp.stores[i].downBusy)
		copy(st.msgSeq, sp.stores[i].msgSeq)
		st.upStats = sp.stores[i].upStats
		st.downStats = sp.stores[i].downStats
	}
	for i, a := range n.spec[j].apps {
		a.RestoreState(sp.apps[i])
	}
	n.unroutableShard[j] = sp.unroutable
	for d := range s.outbox {
		s.outbox[d] = s.outbox[d][:0]
	}
}

// runSpeculative executes [now, until) in speculative quanta. Each round:
// exchange committed packets, snapshot the at-risk shards (those whose
// incoming lookahead is shorter than the quantum), run every shard to the
// quantum's end in parallel with outboxes held back, then compare each
// at-risk shard's gathered intra-quantum packet set against what it was
// executed with; mismatched shards are rolled back, re-fed, and re-run
// until the sets fix-point. Rounds that fail to converge within
// defaultSpecMaxIters are rolled back wholesale and re-executed with the
// serial merge — the same deterministic order, just without speculation.
func (n *Network) runSpeculative(until time.Duration) {
	la, _ := n.lookaheads()
	q := n.specQuantumFor(la)
	maxIters := n.specMaxIters
	if maxIters <= 0 {
		maxIters = defaultSpecMaxIters
	}
	n.initSpec()

	ns := len(n.shards)
	b := newWindowBarrier(n.shards)
	defer b.close()
	ends := make([]time.Duration, ns) // per-round barrier ends; zero leaves a shard out

	snaps := make([]*shardSnap, ns)
	inputs := make([][]message, ns) // last injected set per at-risk shard
	pending := make([][]message, ns)
	atRisk := make([]bool, ns)
	rerun := make([]bool, ns)

	for {
		n.exchange()
		open, ok := n.minNext()
		if !ok || open >= until {
			return
		}
		end := until
		if q != noLookahead && q < until-open {
			end = open + q
		}
		width := end - open
		anyRisk := false
		for j := 0; j < ns; j++ {
			if la[j] != noLookahead {
				n.observeLookahead(width)
			}
			atRisk[j] = la[j] != noLookahead && la[j] < width
			if atRisk[j] {
				snaps[j] = n.snapshotShard(j)
				inputs[j] = inputs[j][:0]
				anyRisk = true
			}
		}
		if anyRisk {
			n.specWindows++
		}
		for j := range ends {
			ends[j] = end
		}
		b.run(ends)
		n.windows++

		committed := true
		for iter := 0; anyRisk; iter++ {
			n.gatherPending(end, atRisk, pending)
			changed := 0
			for j := 0; j < ns; j++ {
				rerun[j] = atRisk[j] && !sameMessages(pending[j], inputs[j])
				ends[j] = 0
				if rerun[j] {
					ends[j] = end
					changed++
				}
			}
			if changed == 0 {
				break
			}
			if iter >= maxIters {
				committed = false
				break
			}
			for j := 0; j < ns; j++ {
				if !rerun[j] {
					continue
				}
				n.restoreShard(j, snaps[j])
				inputs[j] = append(inputs[j][:0], pending[j]...)
				eng := n.shards[j].eng
				eng.grow(len(inputs[j]))
				for i := range inputs[j] {
					eng.scheduleArrival(inputs[j][i])
				}
			}
			b.run(ends)
		}

		if committed {
			// Intra-quantum packets were consumed by injection; only the
			// post-quantum tail stays for the next exchange.
			for _, s := range n.shards {
				for d, box := range s.outbox {
					keep := box[:0]
					for i := range box {
						if box[i].at >= end {
							keep = append(keep, box[i])
						}
					}
					s.outbox[d] = keep
				}
			}
		} else {
			// Deterministic bailout: discard the whole round's speculation
			// and run the quantum with the serial merge. The surviving
			// outbox packets (from the exempt shards) are real committed
			// sends; runMerged's exchange delivers them.
			for j := 0; j < ns; j++ {
				if atRisk[j] {
					n.restoreShard(j, snaps[j])
				}
			}
			n.runMerged(end)
		}
	}
}

// gatherPending collects, per destination shard, the packets currently
// held in outboxes that would land inside the open quantum, canonically
// sorted by the unique (src, seq) origin key. A packet inside the quantum
// for a shard outside the at-risk set would contradict the lookahead
// bound that exempted it from snapshotting — that is an engine bug, not a
// recoverable condition.
func (n *Network) gatherPending(end time.Duration, atRisk []bool, pending [][]message) {
	for j := range pending {
		pending[j] = pending[j][:0]
	}
	for _, s := range n.shards {
		for d, box := range s.outbox {
			for i := range box {
				if box[i].at < end {
					if !atRisk[d] {
						panic("netsim: speculative quantum packet for a shard outside its lookahead bound")
					}
					pending[d] = append(pending[d], box[i])
				}
			}
		}
	}
	for j := range pending {
		ms := pending[j]
		sort.Slice(ms, func(a, b int) bool {
			if ms[a].src != ms[b].src {
				return ms[a].src < ms[b].src
			}
			return ms[a].seq < ms[b].seq
		})
	}
}

// sameMessages reports whether two canonically sorted packet sets are
// identical in full content — not just by key, since a rolled-back sender
// can reissue the same (src, seq) with different contents.
func sameMessages(a, b []message) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameMessage(&a[i], &b[i]) {
			return false
		}
	}
	return true
}

func sameMessage(x, y *message) bool {
	return x.at == y.at && x.src == y.src && x.seq == y.seq &&
		x.size == y.size && x.dst == y.dst && x.slot == y.slot &&
		sameSegment(&x.seg, &y.seg)
}

func sameSegment(a, b *tcpkit.Segment) bool {
	return a.Src == b.Src && a.Dst == b.Dst &&
		a.SrcPort == b.SrcPort && a.DstPort == b.DstPort &&
		a.Seq == b.Seq && a.Ack == b.Ack &&
		a.Flags == b.Flags && a.Window == b.Window &&
		a.PayloadLen == b.PayloadLen && a.Meta == b.Meta &&
		bytes.Equal(a.Options, b.Options)
}
