package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"isrl/internal/dataset"
	"isrl/internal/fault"
)

// DrawVersion numbers the random draws a session makes from its seed: which
// generator a seed builds (geom.NewRand) and how the algorithms and the
// sampler consume it. A journaled session replays to the same questions only
// under the draws it was journaled with, so a change that makes the same seed
// and answers ask different questions must raise DrawVersion. Version 0 is
// every journal written before the field existed.
const DrawVersion = 1

// Session inverts control of an interactive search: instead of the
// algorithm calling back into a blocking User, the application pulls the
// next question with Next, shows it to its real user (web form, chat,
// survey...), and pushes the answer back with Answer. The algorithm runs in
// a background goroutine bridged by channels.
//
// The protocol is strictly alternating: Next, Answer, Next, Answer, ...
// until Next reports done, after which Result returns the outcome. Close
// aborts an unfinished session and releases the goroutine. A Session is not
// safe for concurrent use by multiple goroutines.
type Session struct {
	questions chan [2][]float64
	answers   chan bool
	finished  chan struct{}

	result    Result
	err       error
	lastQ     [2][]float64 // question delivered by Next, awaiting Answer
	pending   bool         // a question was delivered and awaits Answer
	applied   int          // answers accepted so far (replay prefix included)
	done      bool
	closed    chan struct{}
	closeOnce sync.Once

	// replay is the recorded answer prefix consumed by the algorithm
	// goroutine before the session goes live. Only that goroutine touches it
	// (construction happens-before the go statement).
	replay []bool
}

// ErrSessionClosed is returned by Result when the session was aborted.
var ErrSessionClosed = errors.New("core: session closed before completion")

// errSessionAborted signals the algorithm goroutine to unwind.
var errSessionAborted = errors.New("core: session aborted")

// NewSession starts alg on ds with threshold eps, returning the handle the
// application drives. The algorithm runs in its own goroutine and blocks
// whenever it needs an answer.
//
// When alg implements ContextAlgorithm its RunContext method receives ctx —
// the hook per-session tracing rides on; otherwise ctx is ignored and plain
// Run is called. The context carries values only: the session lifecycle is
// still governed by Close, not ctx cancellation.
//
// replay is a recorded answer prefix, nil for a fresh session: the first
// len(replay) oracle questions are answered from the trace inside the
// algorithm goroutine — no channel round-trips, no fault injection — and
// only then does the session go live and surface questions through Next.
// This is the crash-recovery primitive: every algorithm here is
// deterministic given its seed and answer trace (the invariant the
// determinism suites pin down), so feeding a journaled prefix back through
// the oracle reconstructs the exact utility range, question sequence and
// eventual Result of the interrupted run. If the algorithm finishes before
// exhausting the prefix (the crash lost a finish tombstone, not answers),
// the leftovers are ignored and Next reports done immediately.
func NewSession(ctx context.Context, alg Algorithm, ds *dataset.Dataset, eps float64, replay []bool) *Session {
	s := &Session{
		questions: make(chan [2][]float64),
		answers:   make(chan bool),
		finished:  make(chan struct{}),
		closed:    make(chan struct{}),
		replay:    append([]bool(nil), replay...),
		// The replayed prefix counts as applied rounds: a recovered session
		// resumes at round len(replay)+1, so round-indexed retries from
		// before the crash keep their exactly-once semantics.
		applied: len(replay),
	}
	go func() {
		defer close(s.finished)
		defer func() {
			if r := recover(); r != nil {
				if err, ok := r.(error); ok && errors.Is(err, errSessionAborted) {
					s.err = ErrSessionClosed
					return
				}
				// A panic that escaped the algorithm (degenerate geometry,
				// injected fault, plain bug). Killing the process over one
				// session is the wrong trade in a server with thousands of
				// them: contain it as the session's error, stack attached
				// for diagnosis, and count it.
				panicsRecovered.Inc()
				s.err = &PanicError{Value: r, Stack: debug.Stack()}
			}
		}()
		var (
			res Result
			err error
		)
		if ca, ok := alg.(ContextAlgorithm); ok {
			res, err = ca.RunContext(ctx, ds, sessionUser{s}, eps, nil)
		} else {
			res, err = alg.Run(ds, sessionUser{s}, eps, nil)
		}
		s.result, s.err = res, err
	}()
	return s
}

// sessionUser bridges the algorithm's blocking Prefer calls onto the
// session channels.
type sessionUser struct{ s *Session }

// Prefer implements User. It blocks until the application answers, and
// unwinds the algorithm goroutine when the session is closed.
func (u sessionUser) Prefer(pi, pj []float64) bool {
	// Replay prefix: answers already committed before a restart are fed
	// straight back, bypassing both the channels and the chaos hook —
	// reconstruction is internal bookkeeping, not a user interaction, and
	// must not consume fault-injection randomness.
	if len(u.s.replay) > 0 {
		ans := u.s.replay[0]
		u.s.replay = u.s.replay[1:]
		return ans
	}
	// Chaos hook: injected latency models a slow user, an injected error or
	// panic a broken one. Prefer has no error channel, so injected errors
	// escalate to a panic contained at the session boundary.
	if err := fault.Hit(fault.PointOracle); err != nil {
		panic(err)
	}
	select {
	case u.s.questions <- [2][]float64{pi, pj}:
	case <-u.s.closed:
		panic(errSessionAborted)
	}
	select {
	case ans := <-u.s.answers:
		return ans
	case <-u.s.closed:
		panic(errSessionAborted)
	}
}

// Next returns the next question to show the user, or done=true when the
// search has finished (call Result). Calling Next twice without answering
// returns the same pending question.
func (s *Session) Next() (pi, pj []float64, done bool) {
	if s.done {
		return nil, nil, true
	}
	if s.pending {
		return s.lastQ[0], s.lastQ[1], false
	}
	select {
	case q := <-s.questions:
		s.lastQ = q
		s.pending = true
		return q[0], q[1], false
	case <-s.finished:
		s.done = true
		return nil, nil, true
	}
}

// NextTimeout is Next with a deadline: ok reports whether a definitive state
// (a question, or completion) was reached within d. On ok=false the session
// is unchanged — the algorithm is still computing (a degenerate LP, an
// injected stall) — and the caller may retry or give up without corrupting
// the protocol. d <= 0 means no deadline (identical to Next).
func (s *Session) NextTimeout(d time.Duration) (pi, pj []float64, done, ok bool) {
	if d <= 0 {
		pi, pj, done = s.Next()
		return pi, pj, done, true
	}
	if s.done {
		return nil, nil, true, true
	}
	if s.pending {
		return s.lastQ[0], s.lastQ[1], false, true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case q := <-s.questions:
		s.lastQ = q
		s.pending = true
		return q[0], q[1], false, true
	case <-s.finished:
		s.done = true
		return nil, nil, true, true
	case <-timer.C:
		return nil, nil, false, false
	}
}

// Answer submits the user's choice for the pending question: preferFirst is
// true when the first tuple of Next's pair was chosen. It errors when no
// question is pending.
func (s *Session) Answer(preferFirst bool) error {
	if !s.pending {
		return fmt.Errorf("core: Answer without a pending question")
	}
	s.pending = false
	s.applied++
	select {
	case s.answers <- preferFirst:
		return nil
	case <-s.finished:
		// The algorithm finished while the answer was in flight (it only
		// happens if Run aborted); surface at Result.
		s.done = true
		return nil
	}
}

// Applied returns how many answers the session has accepted, counting any
// replayed recovery prefix. The next answer targets round Applied()+1 —
// the index the server's exactly-once protocol checks duplicate and stale
// retries against. Like the rest of the protocol API it must be called from
// the goroutine driving the session.
func (s *Session) Applied() int { return s.applied }

// Result blocks until the search completes and returns its outcome. It
// errors if questions remain unanswered (the session would deadlock) or the
// session was closed.
func (s *Session) Result() (Result, error) {
	if s.pending {
		return Result{}, fmt.Errorf("core: Result with an unanswered question pending")
	}
	<-s.finished
	s.done = true
	return s.result, s.err
}

// Close aborts the session; subsequent Result calls return
// ErrSessionClosed. Closing a finished session is a no-op. Unlike the rest
// of the Session API, Close touches no protocol state and is safe to call
// from any goroutine at any time (the server's TTL sweeper closes sessions
// that a request handler may still be driving).
func (s *Session) Close() {
	s.closeOnce.Do(func() { close(s.closed) })
	<-s.finished
}
