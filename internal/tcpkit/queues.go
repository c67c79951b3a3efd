package tcpkit

import (
	"time"
)

// HalfOpen is a listen-queue entry: state for a connection whose final ACK
// has not arrived (a SYN_RECV socket).
type HalfOpen struct {
	Peer      PeerKey
	ClientISN uint32
	ServerISN uint32
	MSS       uint16
	WScale    uint8
	CreatedAt time.Duration
	ExpiresAt time.Duration
}

// ListenQueue holds half-open connections up to the backlog limit. Its
// occupancy is the target of SYN floods. Entries are held by value, so a
// SYN costs no heap object of its own; the map grows with the occupancy a
// run reaches rather than being sized for the backlog up front.
type ListenQueue struct {
	capacity int
	entries  map[PeerKey]HalfOpen
	onLen    func(int)
}

// NewListenQueue returns a queue with the given backlog.
func NewListenQueue(backlog int, onLen func(int)) *ListenQueue {
	return &ListenQueue{
		capacity: backlog,
		entries:  make(map[PeerKey]HalfOpen),
		onLen:    onLen,
	}
}

// Len returns the number of half-open connections.
func (q *ListenQueue) Len() int { return len(q.entries) }

// Cap returns the backlog limit.
func (q *ListenQueue) Cap() int { return q.capacity }

// Full reports whether the queue is at capacity.
func (q *ListenQueue) Full() bool { return len(q.entries) >= q.capacity }

// Add inserts a half-open entry; it fails when full. A re-transmitted SYN
// for an existing peer refreshes nothing and reports success with the
// existing entry retained.
func (q *ListenQueue) Add(h HalfOpen) bool {
	if _, exists := q.entries[h.Peer]; exists {
		return true
	}
	if q.Full() {
		return false
	}
	q.entries[h.Peer] = h
	q.notify()
	return true
}

// Get looks up the half-open entry for a peer.
func (q *ListenQueue) Get(peer PeerKey) (HalfOpen, bool) {
	h, ok := q.entries[peer]
	return h, ok
}

// Remove deletes a peer's entry and reports whether it existed.
func (q *ListenQueue) Remove(peer PeerKey) bool {
	if _, ok := q.entries[peer]; !ok {
		return false
	}
	delete(q.entries, peer)
	q.notify()
	return true
}

// Expire removes every entry whose ExpiresAt is at or before now and
// returns how many were evicted — the reset-timer behaviour that frees the
// queue after a flood ends.
func (q *ListenQueue) Expire(now time.Duration) int {
	n := 0
	for k, h := range q.entries {
		if h.ExpiresAt <= now {
			delete(q.entries, k)
			n++
		}
	}
	if n > 0 {
		q.notify()
	}
	return n
}

func (q *ListenQueue) notify() {
	if q.onLen != nil {
		q.onLen(len(q.entries))
	}
}

// Established is an accept-queue entry: a completed connection awaiting
// accept(2).
type Established struct {
	Peer         PeerKey
	MSS          uint16
	SolvedPuzzle bool
	CreatedAt    time.Duration
}

// AcceptQueue holds established-but-unaccepted connections. Its occupancy is
// the target of connection floods. The FIFO is fifo[head:], held by value:
// Pop advances head, and Push slides the live entries back to the front
// before it would grow the array, so a queue that cycles within its
// capacity reuses one array.
type AcceptQueue struct {
	capacity int
	fifo     []Established
	head     int
	members  map[PeerKey]struct{}
	onLen    func(int)
}

// NewAcceptQueue returns a queue with the given capacity.
func NewAcceptQueue(capacity int, onLen func(int)) *AcceptQueue {
	return &AcceptQueue{
		capacity: capacity,
		members:  make(map[PeerKey]struct{}, capacity),
		onLen:    onLen,
	}
}

// Len returns the queue occupancy.
func (q *AcceptQueue) Len() int { return len(q.fifo) - q.head }

// Cap returns the capacity.
func (q *AcceptQueue) Cap() int { return q.capacity }

// Full reports whether the queue is at capacity.
func (q *AcceptQueue) Full() bool { return q.Len() >= q.capacity }

// Contains reports whether a peer already occupies a slot — the property
// that bounds replay floods to one slot per captured solution (paper §7).
func (q *AcceptQueue) Contains(peer PeerKey) bool {
	_, ok := q.members[peer]
	return ok
}

// Push enqueues an established connection; it fails when full or when the
// peer already holds a slot.
func (q *AcceptQueue) Push(e Established) bool {
	if q.Full() || q.Contains(e.Peer) {
		return false
	}
	if q.head > 0 && len(q.fifo) == cap(q.fifo) {
		q.fifo = q.fifo[:copy(q.fifo, q.fifo[q.head:])]
		q.head = 0
	}
	q.fifo = append(q.fifo, e)
	q.members[e.Peer] = struct{}{}
	q.notify()
	return true
}

// Pop dequeues the oldest connection for the application to accept.
func (q *AcceptQueue) Pop() (Established, bool) {
	if q.Len() == 0 {
		return Established{}, false
	}
	e := q.fifo[q.head]
	q.head++
	if q.head == len(q.fifo) {
		q.fifo, q.head = q.fifo[:0], 0
	}
	delete(q.members, e.Peer)
	q.notify()
	return e, true
}

func (q *AcceptQueue) notify() {
	if q.onLen != nil {
		q.onLen(q.Len())
	}
}
