package serversim

import (
	"github.com/tcppuzzles/tcppuzzles/sweep"
	"testing"
	"time"
)

func TestSYNCacheExtendsBacklog(t *testing.T) {
	f := newFixture(t, Config{Defense: sweep.DefenseSYNCache, Backlog: 2})
	// Four SYNs: two fill the listen queue, two spill into the cache.
	for i := 0; i < 4; i++ {
		f.syn(uint16(7100+i), uint32(i))
		f.run(20 * time.Millisecond)
	}
	if got := f.server.ListenLen(); got != 2 {
		t.Fatalf("ListenLen = %d, want 2", got)
	}
	if f.server.Metrics().SYNsDropped != 0 {
		t.Fatalf("SYNsDropped = %d, want 0 (cache absorbs)", f.server.Metrics().SYNsDropped)
	}
	// All four SYN-ACKs were sent; complete the cached ones.
	synacks := 0
	for _, seg := range f.peer.got {
		if seg.Flags.Has(0x12) { // SYN|ACK
			synacks++
			f.ack(seg.DstPort, seg.Ack-1, seg.Seq, nil, 0)
		}
	}
	f.run(50 * time.Millisecond)
	if synacks != 4 {
		t.Fatalf("SYN-ACKs = %d, want 4", synacks)
	}
	if got := f.server.OpenConns(); got != 4 {
		t.Errorf("OpenConns = %d, want 4 (cache path establishes)", got)
	}
}

func TestSYNCacheEventuallyOverflows(t *testing.T) {
	f := newFixture(t, Config{Defense: sweep.DefenseSYNCache, Backlog: 2})
	// Cache capacity is 4× backlog = 8; with the 2-slot listen queue a
	// total of 10 half-opens fit.
	for i := 0; i < 20; i++ {
		f.syn(uint16(7200+i), uint32(i))
		f.run(10 * time.Millisecond)
	}
	if f.server.Metrics().SYNsDropped == 0 {
		t.Error("cache never overflowed — backlog-full behaviour not reached")
	}
}
