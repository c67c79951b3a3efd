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

// sameOrder fails the test where the queued run's log diverges from the
// log of the run with a timer per job, or stops short of it.
func sameOrder(t *testing.T, seed int64, plain, queued []string) {
	t.Helper()
	for i := range plain {
		if i >= len(queued) {
			t.Fatalf("seed %d: queued run stops after %d of %d events", seed, len(queued), len(plain))
		}
		if queued[i] != plain[i] {
			t.Fatalf("seed %d: firing order diverges at event %d: %q with a timer per job, %q queued",
				seed, i, plain[i], queued[i])
		}
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
		sameOrder(t, seed, plain.log, queued.log)
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

// TestRunQueueFinalRunFiresLikeScheduleAt is the order proof for a final
// run whose end falls while the servers are backlogged far past it: the
// queues count the jobs behind their first past-end one instead of
// storing them, and still fire in the order one timer per job gives, take
// the same sequence numbers, and leave the engine's pending queue and
// counters exactly as storing every job does.
func TestRunQueueFinalRunFiresLikeScheduleAt(t *testing.T) {
	const end = 600 * queueTick // arrivals run on to about twice this
	for seed := int64(1); seed <= 5; seed++ {
		plain, stored, final := newQueueWorld(seed, false), newQueueWorld(seed, true), newQueueWorld(seed, true)
		plain.e.Run(end)
		stored.e.Run(end)
		final.e.RunToEnd(end)
		sameOrder(t, seed, plain.log, final.log)
		if len(final.log) != len(plain.log) || final.e.seq != plain.e.seq || final.e.fired != plain.e.fired {
			t.Errorf("seed %d: final run logged %d events, seq %d, fired %d; want %d, %d, %d", seed,
				len(final.log), final.e.seq, final.e.fired, len(plain.log), plain.e.seq, plain.e.fired)
		}
		ps, fs := plain.e.Stats(), final.e.Stats()
		ps.PeakTimers, fs.PeakTimers = 0, 0 // a timer per job is the heap growth RunQueue avoids
		if fs != ps {
			t.Errorf("seed %d: final-run stats %+v, want %+v with a timer per job", seed, fs, ps)
		}
		if final.e.Stats() != stored.e.Stats() || final.e.Pending() != stored.e.Pending() || final.e.Now() != stored.e.Now() {
			t.Errorf("seed %d: final run stats %+v, pending %d; storing every job gives %+v, %d", seed,
				final.e.Stats(), final.e.Pending(), stored.e.Stats(), stored.e.Pending())
		}
		counted := 0
		for i, s := range final.servers {
			if got, want := s.q.Len(), stored.servers[i].q.Len(); got != want {
				t.Errorf("seed %d server %d: Len %d after the final run, %d storing every job", seed, i, got, want)
			}
			counted += s.q.past
		}
		if counted < runQueueChunk {
			t.Errorf("seed %d: only %d jobs counted past the end; the world does not straddle it", seed, counted)
		}
	}
}

// TestRunQueueStoresOnePastEnd: once the engine's end is declared, a queue
// stores the first job due after it and counts every job behind that one.
func TestRunQueueStoresOnePastEnd(t *testing.T) {
	e := NewEngine()
	var q RunQueue[int]
	var fire func()
	fired := 0
	fire = func() { q.Pop(e, fire); fired++ }
	const n = 3 * runQueueChunk
	e.ScheduleAt(5, func() {
		for i := 0; i < n; i++ {
			q.Push(e, time.Duration(5+3*i), i, fire)
		}
	})
	e.RunToEnd(10) // fires the jobs at 5 and 8
	if fired != 2 || q.Len() != n-2 || e.seq != n+1 || e.Pending() != 1 {
		t.Fatalf("fired %d, Len %d, seq %d, pending %d; want 2, %d, %d, 1", fired, q.Len(), e.seq, e.Pending(), n-2, n+1)
	}
	stored := 0
	for _, c := range q.chunks {
		for _, j := range c {
			if j != (queuedJob[int]{}) {
				stored++
			}
		}
	}
	if stored != 1 || q.n != 1 || q.chunks[0][q.head].at != 11 || len(q.chunks) != 1 || len(q.chunks[0]) != runQueueFirstChunk {
		t.Errorf("stores %d jobs (n %d) in %d chunks, head due at %v; want only the first past the end, due at 11, in the first chunk",
			stored, q.n, len(q.chunks), q.chunks[0][q.head].at)
	}
}

// TestRunPastDeclaredEndPanics: RunToEnd's end is final — a Run, Step or
// second RunToEnd past it panics, and one up to it does not.
func TestRunPastDeclaredEndPanics(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s past the declared end did not panic", what)
			}
		}()
		f()
	}
	e := NewEngine()
	e.ScheduleAt(12, func() {})
	e.RunToEnd(10)
	e.Run(10)
	e.RunToEnd(8)
	e.Schedule(0, func() {})
	if !e.Step() {
		t.Fatal("Step found no event at the end instant")
	}
	mustPanic("Run", func() { e.Run(11) })
	mustPanic("RunToEnd", func() { e.RunToEnd(20) })
	mustPanic("Step", func() { e.Step() })
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
	if len(q.chunks) != 4 || len(q.chunks[0]) != runQueueChunk {
		t.Fatalf("%d jobs in %d chunks, the first of %d slots; want 4 chunks of %d", n, len(q.chunks), len(q.chunks[0]), runQueueChunk)
	}
	first := q.chunks[0]
	e.Run(time.Duration(runQueueChunk + 4))
	if q.Len() != n-runQueueChunk-5 || len(q.chunks) != 3 || &q.chunks[0][0] == &first[0] {
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

// TestRunQueueFirstChunkFollowsBacklog: a queue's storage starts at
// runQueueFirstChunk slots and grows only when its backlog fills more than
// half of it; a short backlog cycling through the chunk slides to its
// front in place and never pins a fired job.
func TestRunQueueFirstChunkFollowsBacklog(t *testing.T) {
	e := NewEngine()
	var q RunQueue[*int]
	var fire func()
	fire = func() { q.Pop(e, fire) }
	at := time.Duration(0)
	push := func() { at++; q.Push(e, at, new(int), fire) }
	for i := 0; i < 3; i++ {
		push()
	}
	for i := 0; i < 1000; i++ { // a backlog of three, one in and one out
		push()
		e.Run(at - 3)
	}
	if q.Len() != 3 || len(q.chunks) != 1 || len(q.chunks[0]) != runQueueFirstChunk {
		t.Fatalf("backlog of %d in %d chunks, the first of %d slots; want 3 in one chunk of %d",
			q.Len(), len(q.chunks), len(q.chunks[0]), runQueueFirstChunk)
	}
	for i, j := range q.chunks[0] {
		if live := i >= q.head && i < q.head+q.n; live != (j.job != nil) {
			t.Fatalf("slot %d (head %d, %d jobs) holds %+v", i, q.head, q.n, j)
		}
	}
	for q.Len() < 2*runQueueFirstChunk+1 {
		push()
	}
	if len(q.chunks) != 1 || len(q.chunks[0]) != 4*runQueueFirstChunk {
		t.Errorf("backlog of %d in %d chunks, the first of %d slots; want one of %d",
			q.Len(), len(q.chunks), len(q.chunks[0]), 4*runQueueFirstChunk)
	}
}
