package netsim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// queueWorld is a small overloaded system on one engine: three FIFO
// servers fed faster than they serve, each completion scheduling
// follow-up work, and unrelated timers. Every time is a small multiple of
// one tick, so completions tie at the same nanosecond with each other,
// with the follow-ups and with the timers, and about a fifth of the jobs
// cost nothing. All randomness is drawn inside events from one stream, so
// a single event firing out of order changes everything after it.
//
// queued selects how a job completion reaches the engine: through the
// server's RunQueue, or as one ScheduleAt per job — the behaviour the
// queue must reproduce exactly.
type queueWorld struct {
	queued   bool
	e        *Engine
	rnd      *rand.Rand
	servers  []*queueServer
	arrivals int
	jobs     int
	log      []string
	maxLen   int
	maxHeap  int
	arriveFn func()
}

type queueServer struct {
	w      *queueWorld
	id     int
	freeAt time.Duration
	q      RunQueue[int]
	fireFn func()
}

const (
	queueTick     = time.Microsecond
	queueArrivals = 1200
)

func newQueueWorld(seed int64, queued bool) *queueWorld {
	w := &queueWorld{queued: queued, e: NewEngine(), rnd: rand.New(rand.NewSource(seed))}
	w.arriveFn = w.arrive
	for i := 0; i < 3; i++ {
		s := &queueServer{w: w, id: i}
		s.fireFn = s.fire
		w.servers = append(w.servers, s)
	}
	w.e.Schedule(0, w.arriveFn)
	return w
}

func (w *queueWorld) ticks(n int) time.Duration { return time.Duration(w.rnd.Intn(n)) * queueTick }

func (w *queueWorld) note(format string, args ...any) {
	w.log = append(w.log, fmt.Sprintf("%v ", w.e.Now())+fmt.Sprintf(format, args...))
	if n := w.e.Pending(); n > w.maxHeap {
		w.maxHeap = n
	}
}

// arrive submits a burst of jobs, mostly to server 0, arms an unrelated
// timer, and re-arms itself.
func (w *queueWorld) arrive() {
	for k := w.rnd.Intn(3); k >= 0; k-- {
		s := w.servers[0]
		if w.rnd.Intn(3) == 0 {
			s = w.servers[1+w.rnd.Intn(2)]
		}
		s.submit()
	}
	w.e.Schedule(w.ticks(3), func() { w.note("timer") })
	if w.arrivals++; w.arrivals < queueArrivals {
		w.e.Schedule(w.ticks(3), w.arriveFn)
	}
}

func (s *queueServer) submit() {
	w := s.w
	done := w.e.Now()
	if s.freeAt > done {
		done = s.freeAt
	}
	done += w.ticks(5)
	s.freeAt = done
	job := w.jobs
	w.jobs++
	if !w.queued {
		w.e.ScheduleAt(done, func() { s.complete(job) })
		return
	}
	s.q.Push(w.e, done, job, s.fireFn)
	if n := s.q.Len(); n > w.maxLen {
		w.maxLen = n
	}
}

func (s *queueServer) fire() { s.complete(s.q.Pop(s.w.e, s.fireFn)) }

func (s *queueServer) complete(job int) {
	w := s.w
	w.note("job %d on server %d", job, s.id)
	if w.rnd.Intn(2) == 0 {
		w.e.Schedule(w.ticks(3), func() { w.note("follow-up of job %d", job) })
	}
}

// TestRunQueueFiresLikeScheduleAt is the order proof as a test: the same
// job stream through run-queues and through one timer per job fires in
// the identical order and leaves the engine counters identical, while the
// run-queue keeps the heap small.
func TestRunQueueFiresLikeScheduleAt(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		plain, queued := newQueueWorld(seed, false), newQueueWorld(seed, true)
		plain.e.Run(time.Hour)
		queued.e.Run(time.Hour)
		if len(plain.log) < 3*queueArrivals {
			t.Fatalf("seed %d: only %d events logged", seed, len(plain.log))
		}
		for i := range plain.log {
			if i >= len(queued.log) {
				t.Fatalf("seed %d: queued run stops after %d of %d events", seed, len(queued.log), len(plain.log))
			}
			if queued.log[i] != plain.log[i] {
				t.Fatalf("seed %d: firing order diverges at event %d: %q with a timer per job, %q queued",
					seed, i, plain.log[i], queued.log[i])
			}
		}
		if len(queued.log) != len(plain.log) || queued.e.seq != plain.e.seq || queued.e.fired != plain.e.fired {
			t.Errorf("seed %d: queued run logged %d events, seq %d, fired %d; want %d, %d, %d", seed,
				len(queued.log), queued.e.seq, queued.e.fired, len(plain.log), plain.e.seq, plain.e.fired)
		}
		if queued.maxLen <= 2*runQueueChunk {
			t.Errorf("seed %d: longest queue %d never spanned three chunks (%d each)", seed, queued.maxLen, runQueueChunk)
		}
		if queued.maxHeap >= 20 || plain.maxHeap <= queued.maxLen {
			t.Errorf("seed %d: heap peaked at %d queued and %d with a timer per job (longest queue %d)",
				seed, queued.maxHeap, plain.maxHeap, queued.maxLen)
		}
		for _, s := range queued.servers {
			if s.q.Len() != 0 || len(s.q.chunks) != 1 || s.q.head != 0 {
				t.Errorf("seed %d server %d: drained queue holds %d jobs in %d chunks, head %d",
					seed, s.id, s.q.Len(), len(s.q.chunks), s.q.head)
			}
		}
	}
}

// TestRunQueueReleasesJobs: a popped slot is zeroed and a drained chunk is
// dropped, so the queue never pins more than the live jobs' chunks.
func TestRunQueueReleasesJobs(t *testing.T) {
	e := NewEngine()
	var q RunQueue[*int]
	var fire func()
	fire = func() { q.Pop(e, fire) }
	const n = 3*runQueueChunk + 10
	for i := 0; i < n; i++ {
		q.Push(e, time.Duration(i), new(int), fire)
	}
	first := q.chunks[0]
	e.Run(time.Duration(runQueueChunk + 4))
	if q.Len() != n-runQueueChunk-5 || len(q.chunks) != 3 || q.chunks[0] == first {
		t.Fatalf("after %d pops: %d jobs in %d chunks", runQueueChunk+5, q.Len(), len(q.chunks))
	}
	for i, j := range first {
		if j != (queuedJob[*int]{}) {
			t.Fatalf("slot %d of the drained chunk still holds %+v", i, j)
		}
	}
	for i := 0; i < q.head; i++ {
		if q.chunks[0][i].job != nil {
			t.Fatalf("popped slot %d of the head chunk still holds its job", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Push before the previous job's completion time did not panic")
		}
	}()
	q.Push(e, q.tailAt-1, new(int), fire)
}
