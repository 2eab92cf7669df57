package main

import (
	"container/heap"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"isrl/client"
	"isrl/internal/core"
	"isrl/internal/geom"
)

// op is one kind of client call the load makes.
type op int

const (
	opCreate op = iota
	opAnswer
	opGet
	opDelete
	opDup // an answer re-sent with the round it already carried
	numOps
)

var opNames = [numOps]string{"create", "answer", "get", "delete", "dup"}

// window is the measured interval; samples count when their call completes
// inside it.
type window struct{ start, end time.Time }

func (w window) contains(t time.Time) bool { return !t.Before(w.start) && t.Before(w.end) }

// recorder collects one load goroutine's samples without locking; the
// recorders are merged once the load has stopped.
type recorder struct {
	win   window
	spans *spanStore // traced runs only

	lat       [numOps][]float64 // ms from the call's due time, completed in the window
	late      []float64         // ms the generator issued a call after it was due
	attempted int64             // every call and check of the run
	failed    int64
	failures  []string // the first few failure messages
}

func newRecorder(win window, spans *spanStore) *recorder {
	return &recorder{win: win, spans: spans}
}

// call records one client call. due is when the call should have started:
// its schedule slot in the open loop, its start in the closed loop.
func (r *recorder) call(o op, sid string, due, start, end time.Time, err error) {
	r.attempted++
	if err != nil {
		r.fail("%s %s: %v", opNames[o], sid, err)
		return
	}
	if r.win.contains(end) {
		r.lat[o] = append(r.lat[o], ms(end.Sub(due)))
	}
	if r.spans != nil {
		r.spans.add(sid, "client."+opNames[o], start, end)
	}
}

// delay records how late the generator issued a call that was due at due.
func (r *recorder) delay(due, start time.Time) {
	if r.win.contains(start) {
		r.late = append(r.late, ms(start.Sub(due)))
	}
}

// check records one correctness check.
func (r *recorder) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// merge folds other's samples into r.
func (r *recorder) merge(other *recorder) {
	for o := range r.lat {
		r.lat[o] = append(r.lat[o], other.lat[o]...)
	}
	r.late = append(r.late, other.late...)
	r.attempted += other.attempted
	r.failed += other.failed
	for _, f := range other.failures {
		if len(r.failures) < 8 {
			r.failures = append(r.failures, f)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// outcome is one session's end as the client saw it.
type outcome struct {
	utility   []float64
	result    *client.Result
	abandoned bool
}

// outcomes is the shared table of finished sessions, keyed by the ordinal N
// of the server-assigned id sN.
type outcomes struct {
	mu      sync.Mutex
	m       map[int]outcome
	highest int // largest ordinal created so far
}

func newOutcomes() *outcomes { return &outcomes{m: make(map[int]outcome)} }

func (o *outcomes) created(n int) {
	o.mu.Lock()
	if n > o.highest {
		o.highest = n
	}
	o.mu.Unlock()
}

func (o *outcomes) createdUpTo() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.highest
}

func (o *outcomes) set(n int, oc outcome) {
	o.mu.Lock()
	o.m[n] = oc
	o.mu.Unlock()
}

// Per-session random streams. Everything a simulated user does derives
// from the workload seed and the session ordinal, so a session's outcome
// does not depend on how the clients were scheduled.
const (
	streamUtility = iota + 1
	streamBehaviour
	streamArrivals
)

func sessionRand(seed int64, n, stream int) *rand.Rand {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(n)<<8 ^ uint64(stream)
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 29
	return rand.New(rand.NewSource(int64(x)))
}

// utility is the hidden utility vector of session sN's simulated user.
func utility(seed int64, n, dim int) []float64 {
	return geom.SampleSimplex(sessionRand(seed, n, streamUtility), dim)
}

func idOf(s *client.Session) string {
	if s == nil {
		return ""
	}
	return s.ID()
}

func ordinal(id string) (int, error) {
	var n int
	if _, err := fmt.Sscanf(id, "s%d", &n); err != nil {
		return 0, fmt.Errorf("session id %q: %w", id, err)
	}
	return n, nil
}

// loadRun is what one load phase needs to know.
type loadRun struct {
	st   *stack
	w    workload
	seed int64
	win  window
	out  *outcomes
}

// closedLoop runs closedClients users back to back with no think time
// until the window has ended and sessions s1..sN have all been created.
// Each client finishes the session it is in before it stops.
func (l *loadRun) closedLoop(ctx context.Context) *recorder {
	recs := make([]*recorder, closedClients)
	var wg sync.WaitGroup
	for i := range recs {
		recs[i] = newRecorder(l.win, l.st.spans)
		wg.Add(1)
		go func(r *recorder) {
			defer wg.Done()
			last := time.Now()
			for ctx.Err() == nil && (time.Now().Before(l.win.end) || l.out.createdUpTo() < l.w.Sessions) {
				last = l.closedSession(ctx, r, last)
			}
		}(recs[i])
	}
	wg.Wait()
	for _, r := range recs[1:] {
		recs[0].merge(r)
	}
	return recs[0]
}

// closedSession drives one session to its end. prev is when the client's
// previous call returned; the gap to the next call is the generator's own
// delay. It returns when its last call returned.
func (l *loadRun) closedSession(ctx context.Context, r *recorder, prev time.Time) time.Time {
	start := time.Now()
	r.delay(prev, start)
	sess, err := l.st.client.Create(ctx)
	end := time.Now()
	r.call(opCreate, idOf(sess), start, start, end, err)
	if err != nil {
		return end
	}
	n, err := ordinal(sess.ID())
	if err != nil {
		r.fail("%v", err)
		return end
	}
	l.out.created(n)
	user := core.SimulatedUser{Utility: utility(l.seed, n, l.st.ds.Dim())}
	for !sess.Done() {
		q := sess.Question()
		if q == nil {
			r.fail("session %s: neither done nor asking", sess.ID())
			return end
		}
		prefer := user.Prefer(q.First, q.Second)
		start = time.Now()
		r.delay(end, start)
		err = sess.Answer(ctx, prefer)
		end = time.Now()
		r.call(opAnswer, sess.ID(), start, start, end, err)
		if err != nil {
			return end
		}
	}
	l.finish(r, n, user.Utility, sess)
	return end
}

func (l *loadRun) finish(r *recorder, n int, u []float64, sess *client.Session) {
	res, err := sess.Result()
	if err != nil {
		r.fail("session %s: %v", sess.ID(), err)
		return
	}
	l.out.set(n, outcome{utility: u, result: res})
}

// openSession is one live session of the open loop.
type openSession struct {
	n         int
	sess      *client.Session
	user      core.SimulatedUser
	rng       *rand.Rand // the session's own behaviour stream
	answered  int
	abandonAt int // round answered with a DELETE instead; 0 never
}

// event is a request due at a time: a new session (s == nil) or the next
// step of a live one.
type event struct {
	due time.Time
	s   *openSession
}

type eventHeap []event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i].due.Before(h[j].due) }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// openLoop offers sessions as a Poisson process at w.Rate per second. One
// generator goroutine keeps the schedule and hands due requests to
// closedClients workers; a session's next step is scheduled a think time
// after its previous call returned. Latency counts from the due time, so a
// stall shows up in every request it delays. After the window only
// sessions s1..sN keep going, until each has ended; later sessions stay
// live and idle.
func (l *loadRun) openLoop(ctx context.Context) *recorder {
	gen := newRecorder(l.win, l.st.spans)
	work := make(chan event)
	// Each worker has at most one follow-up outstanding, so this buffer
	// lets a worker hand its follow-up back without waiting for the
	// generator.
	next := make(chan *event, closedClients)
	recs := make([]*recorder, closedClients)
	var wg sync.WaitGroup
	for i := range recs {
		recs[i] = newRecorder(l.win, l.st.spans)
		wg.Add(1)
		go func(r *recorder) {
			defer wg.Done()
			for ev := range work {
				next <- l.openStep(ctx, r, ev)
			}
		}(recs[i])
	}

	arrivals := sessionRand(l.seed, 0, streamArrivals)
	gap := func() time.Duration { return time.Duration(arrivals.ExpFloat64() / l.w.Rate * float64(time.Second)) }
	nextArrival := time.Now().Add(gap())
	var pending eventHeap
	inflight := 0
	timer := time.NewTimer(time.Hour)
	timer.Stop() // Reset below needs a stopped timer with an empty channel
	receive := func(f *event) {
		inflight--
		if f != nil {
			heap.Push(&pending, *f)
		}
	}
	for ctx.Err() == nil {
		stopping := !time.Now().Before(l.win.end)
		arriving := !stopping || l.out.createdUpTo() < l.w.Sessions
		if stopping {
			// Past the window only the sessions the quality metric averages
			// keep going.
			for len(pending) > 0 && pending[0].s.n > l.w.Sessions {
				heap.Pop(&pending)
			}
		}
		if !arriving && len(pending) == 0 {
			if inflight == 0 {
				break
			}
			receive(<-next)
			continue
		}
		ev := event{due: nextArrival}
		fromHeap := len(pending) > 0 && (!arriving || pending[0].due.Before(nextArrival))
		if fromHeap {
			ev = pending[0]
		}
		if wait := time.Until(ev.due); wait > 0 {
			timer.Reset(wait)
			select {
			case f := <-next:
				if !timer.Stop() {
					<-timer.C
				}
				receive(f)
				continue
			case <-timer.C:
			}
		}
		if fromHeap {
			heap.Pop(&pending)
		} else {
			nextArrival = nextArrival.Add(gap())
		}
		for sent := false; !sent; {
			select {
			case work <- ev:
				sent = true
				inflight++
			case f := <-next:
				receive(f)
			}
		}
	}
	close(work)
	wg.Wait()
	for _, r := range recs {
		gen.merge(r)
	}
	return gen
}

// openStep performs one due request and returns the session's next step,
// or nil once the session has ended.
func (l *loadRun) openStep(ctx context.Context, r *recorder, ev event) *event {
	r.delay(ev.due, time.Now())
	think := func() *event {
		d := time.Duration(ev.s.rng.ExpFloat64() * float64(l.w.Think))
		return &event{due: time.Now().Add(d), s: ev.s}
	}
	if ev.s == nil {
		start := time.Now()
		sess, err := l.st.client.Create(ctx)
		r.call(opCreate, idOf(sess), ev.due, start, time.Now(), err)
		if err != nil {
			return nil
		}
		n, err := ordinal(sess.ID())
		if err != nil {
			r.fail("%v", err)
			return nil
		}
		l.out.created(n)
		s := &openSession{
			n:    n,
			sess: sess,
			user: core.SimulatedUser{Utility: utility(l.seed, n, l.st.ds.Dim())},
			rng:  sessionRand(l.seed, n, streamBehaviour),
		}
		if s.rng.Float64() < abandonShare {
			s.abandonAt = 1 + s.rng.Intn(abandonMax)
		}
		ev.s = s
		return think()
	}
	s := ev.s
	id := s.sess.ID()
	if s.abandonAt == s.answered+1 {
		start := time.Now()
		err := s.sess.Abort(ctx)
		r.call(opDelete, id, ev.due, start, time.Now(), err)
		l.out.set(s.n, outcome{utility: s.user.Utility, abandoned: true})
		return nil
	}
	due := ev.due
	if s.rng.Float64() < refetchShare {
		round := s.sess.Question().Round
		start := time.Now()
		err := s.sess.Get(ctx)
		due = time.Now()
		r.call(opGet, id, ev.due, start, due, err)
		if err != nil {
			return nil
		}
		q := s.sess.Question()
		r.check(q != nil && q.Round == round, "session %s: GET moved round %d", id, round)
		if q == nil {
			return nil
		}
	}
	q := s.sess.Question()
	prefer := s.user.Prefer(q.First, q.Second)
	var retry *client.Session
	if s.rng.Float64() < dupShare {
		cp := *s.sess // the pre-answer state: answering it again repeats the round
		retry = &cp
	}
	start := time.Now()
	err := s.sess.Answer(ctx, prefer)
	r.call(opAnswer, id, due, start, time.Now(), err)
	if err != nil {
		return nil
	}
	s.answered++
	if retry != nil {
		start := time.Now()
		err := retry.Answer(ctx, prefer)
		r.call(opDup, id, start, start, time.Now(), err)
		if err == nil {
			r.check(sameState(retry, s.sess), "session %s: duplicate round %d did not replay the stored state", id, q.Round)
		}
	}
	if s.sess.Done() {
		l.finish(r, s.n, s.user.Utility, s.sess)
		return nil
	}
	return think()
}

// sameState reports whether two snapshots of one session agree on what
// comes next.
func sameState(a, b *client.Session) bool {
	if a.Done() != b.Done() {
		return false
	}
	if a.Done() {
		ra, errA := a.Result()
		rb, errB := b.Result()
		return errA == nil && errB == nil && ra.PointIndex == rb.PointIndex && ra.Rounds == rb.Rounds
	}
	qa, qb := a.Question(), b.Question()
	return qa != nil && qb != nil && qa.Round == qb.Round
}
