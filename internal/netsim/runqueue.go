package netsim

import "time"

// runQueueChunk is the chunk length of a RunQueue past its first: a
// backlog of thousands of jobs costs one allocation per chunk and no
// regrow copies. The first chunk starts at runQueueFirstChunk slots and
// doubles up to runQueueChunk, so a queue that never holds more than a
// few jobs never pays for a full chunk.
const (
	runQueueChunk      = 256
	runQueueFirstChunk = 8
)

// RunQueue is the FIFO of one node's pending jobs on a serial resource —
// the solves queued on a modelled CPU — of which only the head is armed in
// the engine, instead of one engine timer per job: a greedy solving bot
// queues thousands of solves that never finish inside the run.
//
// Firing order is exactly what one ScheduleAt per job gives. Push takes
// the job's engine sequence number at enqueue time, where ScheduleAt would
// have, and the head is armed under that (at, seq) key. A FIFO server
// completes jobs in order, so keys within a queue ascend and nothing
// behind the head can be due before it; less is a strict total order over
// (at, seq), so the engine pops the same sequence whether a job entered
// the heap at enqueue or on becoming head.
//
// Storage follows what can still fire. Once the engine's end is declared
// (Engine.RunToEnd), a job queued behind one that completes after the end
// can never fire either: Push counts it in Len and takes its sequence
// number, but does not store it. The first job past the end stays stored,
// and armed when it becomes head, so the engine's counters are what they
// would be with every job stored.
//
// The queue is plain data — the owner passes its engine and bound fire
// callback to each call — and a pointer-free job type keeps the chunks
// flat.
type RunQueue[J any] struct {
	chunks [][]queuedJob[J]
	head   int           // index of the head job in chunks[0]
	n      int           // stored jobs
	past   int           // jobs counted, not stored, behind one past the end
	tailAt time.Duration // completion time of the newest job
}

type queuedJob[J any] struct {
	at  time.Duration
	seq uint64
	job J
}

// Len returns the number of queued jobs, the armed head and the jobs
// counted past the engine's end included.
func (q *RunQueue[J]) Len() int { return q.n + q.past }

// Push queues job to complete at the absolute time at (clamped to now),
// which must not precede the completion time of the job queued before it.
// fire must Pop the queue; it runs once per job, at the job's time.
func (q *RunQueue[J]) Push(e *Engine, at time.Duration, job J, fire func()) {
	if at < e.now {
		at = e.now
	}
	if q.n > 0 && at < q.tailAt {
		panic("netsim: RunQueue.Push before the previous job's completion time")
	}
	beyond := q.n > 0 && e.end != 0 && q.tailAt >= e.end
	q.tailAt = at
	seq := e.seq
	e.seq++
	if beyond {
		q.past++
		return
	}
	pos := q.head + q.n
	switch {
	case len(q.chunks) == 0:
		q.chunks = append(q.chunks, make([]queuedJob[J], runQueueFirstChunk))
	case len(q.chunks) == 1 && pos == len(q.chunks[0]) && pos < runQueueChunk:
		// The lone first chunk is full to its end: slide its jobs to the
		// front, into a chunk twice the size if they fill more than half.
		c := q.chunks[0]
		if 2*q.n > len(c) {
			c = make([]queuedJob[J], 2*len(c))
		}
		copy(c, q.chunks[0][q.head:pos])
		clear(c[q.n:pos]) // never pin a slid job twice
		q.chunks[0], q.head, pos = c, 0, q.n
	case pos == len(q.chunks)*runQueueChunk:
		q.chunks = append(q.chunks, make([]queuedJob[J], runQueueChunk))
	}
	q.chunks[pos/runQueueChunk][pos%runQueueChunk] = queuedJob[J]{at: at, seq: seq, job: job}
	q.n++
	if q.n == 1 {
		e.scheduleSeq(at, seq, fire)
	}
}

// Pop removes and returns the head job and arms the next one. It must be
// called exactly once from each firing of the queue's fire callback.
func (q *RunQueue[J]) Pop(e *Engine, fire func()) J {
	c := q.chunks[0]
	job := c[q.head].job
	c[q.head] = queuedJob[J]{} // never pin a fired job
	q.head++
	q.n--
	switch {
	case q.n == 0:
		q.head = 0 // reuse the chunk from its start
	case q.head == len(c):
		q.head = 0
		last := len(q.chunks) - 1
		copy(q.chunks, q.chunks[1:])
		q.chunks[last] = nil
		q.chunks = q.chunks[:last]
	}
	if q.n > 0 {
		next := &q.chunks[0][q.head]
		e.scheduleSeq(next.at, next.seq, fire)
	}
	return job
}
