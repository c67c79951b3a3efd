package tcpkit

import (
	"testing"
	"time"
)

func peer(i int) PeerKey {
	return PeerKey{IP: [4]byte{10, 0, byte(i >> 8), byte(i)}, Port: 1000}
}

func TestListenQueueCapacity(t *testing.T) {
	var lastLen int
	q := NewListenQueue(3, func(n int) { lastLen = n })
	for i := 0; i < 3; i++ {
		if !q.Add(HalfOpen{Peer: peer(i)}) {
			t.Fatalf("Add(%d) failed below capacity", i)
		}
	}
	if !q.Full() {
		t.Error("queue not full at capacity")
	}
	if q.Add(HalfOpen{Peer: peer(99)}) {
		t.Error("Add succeeded beyond backlog")
	}
	if lastLen != 3 {
		t.Errorf("len callback = %d, want 3", lastLen)
	}
}

func TestListenQueueDuplicateSYN(t *testing.T) {
	q := NewListenQueue(2, nil)
	if !q.Add(HalfOpen{Peer: peer(1), ClientISN: 5}) {
		t.Fatal("Add failed")
	}
	// Retransmitted SYN: reports success, does not duplicate.
	if !q.Add(HalfOpen{Peer: peer(1), ClientISN: 6}) {
		t.Error("duplicate Add reported failure")
	}
	if q.Len() != 1 {
		t.Errorf("Len = %d, want 1", q.Len())
	}
	got, ok := q.Get(peer(1))
	if !ok || got.ClientISN != 5 {
		t.Errorf("Get = %+v, %v; want original entry", got, ok)
	}
}

func TestListenQueueRemoveAndExpire(t *testing.T) {
	q := NewListenQueue(10, nil)
	for i := 0; i < 5; i++ {
		q.Add(HalfOpen{Peer: peer(i), ExpiresAt: time.Duration(i) * time.Second})
	}
	if !q.Remove(peer(0)) {
		t.Error("Remove existing failed")
	}
	if q.Remove(peer(0)) {
		t.Error("Remove missing succeeded")
	}
	// Expire entries 1..3 (ExpiresAt ≤ 3s).
	if n := q.Expire(3 * time.Second); n != 3 {
		t.Errorf("Expire = %d, want 3", n)
	}
	if q.Len() != 1 {
		t.Errorf("Len = %d, want 1", q.Len())
	}
}

func TestAcceptQueueFIFO(t *testing.T) {
	q := NewAcceptQueue(10, nil)
	for i := 0; i < 3; i++ {
		if !q.Push(Established{Peer: peer(i)}) {
			t.Fatalf("Push(%d) failed", i)
		}
	}
	for i := 0; i < 3; i++ {
		e, ok := q.Pop()
		if !ok || e.Peer != peer(i) {
			t.Fatalf("Pop %d = %+v, %v", i, e, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Error("Pop on empty succeeded")
	}
}

func TestAcceptQueueCapacityAndReplayGuard(t *testing.T) {
	q := NewAcceptQueue(2, nil)
	if !q.Push(Established{Peer: peer(1)}) {
		t.Fatal("Push failed")
	}
	// A replayed solution (same peer) cannot take a second slot.
	if q.Push(Established{Peer: peer(1)}) {
		t.Error("duplicate peer took a second slot")
	}
	if !q.Push(Established{Peer: peer(2)}) {
		t.Fatal("Push(2) failed")
	}
	if q.Push(Established{Peer: peer(3)}) {
		t.Error("Push succeeded beyond capacity")
	}
	if !q.Full() {
		t.Error("queue should be full")
	}
	q.Pop()
	if q.Contains(peer(1)) {
		t.Error("Contains after Pop")
	}
	if !q.Push(Established{Peer: peer(3)}) {
		t.Error("Push after Pop failed")
	}
}

func TestQueueLenCallbacks(t *testing.T) {
	var listenSamples, acceptSamples []int
	lq := NewListenQueue(5, func(n int) { listenSamples = append(listenSamples, n) })
	aq := NewAcceptQueue(5, func(n int) { acceptSamples = append(acceptSamples, n) })
	lq.Add(HalfOpen{Peer: peer(1)})
	lq.Remove(peer(1))
	aq.Push(Established{Peer: peer(1)})
	aq.Pop()
	wantL := []int{1, 0}
	wantA := []int{1, 0}
	for i := range wantL {
		if listenSamples[i] != wantL[i] {
			t.Errorf("listen sample %d = %d, want %d", i, listenSamples[i], wantL[i])
		}
		if acceptSamples[i] != wantA[i] {
			t.Errorf("accept sample %d = %d, want %d", i, acceptSamples[i], wantA[i])
		}
	}
}

// TestAcceptQueueCyclesInPlace drives the head-indexed FIFO through
// uneven push/pop runs against a plain slice, then checks that a queue
// cycling within its capacity reuses one array.
func TestAcceptQueueCyclesInPlace(t *testing.T) {
	q := NewAcceptQueue(4, nil)
	var model []PeerKey
	next := 0
	for round := range 200 {
		for range round % 5 {
			ok := q.Push(Established{Peer: peer(next)})
			if want := len(model) < 4; ok != want {
				t.Fatalf("round %d: Push = %v with %d queued", round, ok, len(model))
			}
			if ok {
				model = append(model, peer(next))
			}
			next++
		}
		for range round % 3 {
			e, ok := q.Pop()
			if ok != (len(model) > 0) {
				t.Fatalf("round %d: Pop ok = %v with %d queued", round, ok, len(model))
			}
			if !ok {
				break
			}
			if e.Peer != model[0] {
				t.Fatalf("round %d: Pop = %v, want %v", round, e.Peer, model[0])
			}
			model = model[1:]
		}
		if q.Len() != len(model) {
			t.Fatalf("round %d: Len = %d, want %d", round, q.Len(), len(model))
		}
	}
	// Two entries stay queued, so head keeps advancing and Push has to
	// slide the live entries back instead of growing the array.
	for q.Len() < 2 {
		q.Push(Established{Peer: peer(next)})
		next++
	}
	if got := testing.AllocsPerRun(100, func() {
		for range 100 {
			q.Push(Established{Peer: peer(next)})
			next++
			q.Pop()
		}
	}); got != 0 {
		t.Errorf("%.1f allocs per 100 push/pop cycles, want 0", got)
	}
	if c := cap(q.fifo); c > 2*q.Cap() {
		t.Errorf("FIFO array grew to %d slots for a queue of capacity %d", c, q.Cap())
	}
}
