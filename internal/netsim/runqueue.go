package netsim

import "time"

// runQueueChunk is the fixed chunk length of a RunQueue: a backlog of
// thousands of jobs costs one allocation per chunk and no regrow copies.
const runQueueChunk = 256

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
// The queue is plain data — the owner passes its engine and bound fire
// callback to each call — and a pointer-free job type keeps the chunks
// flat.
type RunQueue[J any] struct {
	chunks []*[runQueueChunk]queuedJob[J]
	head   int // index of the head job in chunks[0]
	n      int
	tailAt time.Duration // completion time of the newest job
}

type queuedJob[J any] struct {
	at  time.Duration
	seq uint64
	job J
}

// Len returns the number of queued jobs, the armed head included.
func (q *RunQueue[J]) Len() int { return q.n }

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
	q.tailAt = at
	seq := e.seq
	e.seq++
	pos := q.head + q.n
	if pos == len(q.chunks)*runQueueChunk {
		q.chunks = append(q.chunks, new([runQueueChunk]queuedJob[J]))
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
	case q.head == runQueueChunk:
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
