// Package server exposes interactive regret-query sessions over a small
// JSON/HTTP API, the deployment shape the paper's motivating scenario
// implies: a database-backed web service asking its users pairwise
// questions. Built entirely on net/http and the core.Session pull API.
//
// Endpoints:
//
//	POST /sessions                 → {"id", "round", "question"|null, "done"}
//	GET  /sessions/{id}            → current question or result
//	POST /sessions/{id}/answer     body {"prefer_first": bool, "round": n}
//	DELETE /sessions/{id}          → abort
//
// The protocol is exactly-once under retries: every answer may carry the
// 1-based round index it targets (the "round" echoed by the previous
// response). A duplicate of the already-applied round re-delivers the stored
// next state with 200 instead of re-applying the preference; a stale or
// future round gets 409 with the expected round in the body. POST /sessions
// honors an Idempotency-Key header (bounded LRU, journaled through the WAL)
// so a retried create returns the existing session instead of leaking a
// duplicate. Answers without a round field keep the legacy apply-blindly
// behaviour.
//
//	GET  /healthz                  → liveness probe
//	GET  /metrics                  → obs registry snapshot (JSON; ?format=text
//	                                 for expvar style, ?format=prom or a
//	                                 text/plain Accept for Prometheus text)
//	GET  /debug/traces             → completed per-session traces (WithTracer)
//	GET  /debug/traces/{id}        → one trace as a span tree (?format=text)
//
// A question is {"first": [...], "second": [...], "attrs": [...]}; when the
// search finishes the payload carries {"done": true, "result": {...}}.
//
// Every request flows through an instrumentation middleware recording
// per-route request counts, status classes and latency histograms into the
// server's obs.Registry; session lifecycle (created / finished / aborted /
// evicted, rounds per finished session) is tracked alongside. Sessions
// untouched for longer than the configured TTL are swept and closed so
// abandoned browsers cannot leak algorithm goroutines. See README.md in
// this directory for the full metric list.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"isrl/internal/core"
	"isrl/internal/dataset"
	"isrl/internal/obs"
	"isrl/internal/trace"
	"isrl/internal/wal"
)

// AlgorithmFactory builds a fresh algorithm per session, seeded with the
// session's journaled random seed. Sessions must not share algorithm
// instances (the DQN agents keep per-call scratch state), and the same seed
// must always yield a behaviorally identical instance: that determinism is
// what lets crash recovery rebuild a session by replaying its answer trace.
type AlgorithmFactory func(seed int64) core.Algorithm

// DefaultSessionTTL is how long an untouched session survives before the
// sweeper closes it.
const DefaultSessionTTL = 30 * time.Minute

// DefaultAnswerDeadline bounds how long a request blocks waiting for the
// algorithm goroutine to produce the next question before answering 503.
const DefaultAnswerDeadline = 30 * time.Second

// DefaultAnswerQueue bounds how many requests may simultaneously drive
// session state (block on the algorithm goroutine). Past the bound the
// server sheds with 503 + Retry-After instead of piling up goroutines
// behind slow geometry.
const DefaultAnswerQueue = 256

// maxAnswerBytes bounds answer request bodies; {"prefer_first": bool} needs
// a few dozen bytes, so anything past this is abuse, not data.
const maxAnswerBytes = 4 << 10

// maxIdemKeyBytes bounds the Idempotency-Key header; a UUID needs 36 bytes,
// so anything past this is abuse, not a key.
const maxIdemKeyBytes = 256

// idemKeyCap bounds the Idempotency-Key → session id LRU. Within the window
// a retried create is exactly-once; past it (thousands of creates later) the
// retry would make a fresh session, which is the bounded-memory trade.
const idemKeyCap = 4096

// completedCap bounds the finished-session response cache that serves
// round-indexed retries of a session's final answer after the session left
// the live table.
const completedCap = 1024

// retryAfterSeconds is the base Retry-After hint on 503/429 responses; the
// emitted value is jittered ±20% (see retryAfter) so synchronized clients
// don't retry in lockstep.
const retryAfterSeconds = 1

// retryAfter returns the jittered Retry-After hint in whole seconds. The
// jitter is applied in milliseconds and ceiled back up, so even a 1-second
// base spreads retries across two buckets instead of one thundering herd.
func retryAfter() int {
	ms := float64(retryAfterSeconds) * 1000 * (0.8 + 0.4*rand.Float64())
	return int(math.Ceil(ms / 1000))
}

// session pairs a live core.Session with its bookkeeping. mu serializes all
// protocol calls (Next/Answer/Result) on the underlying core.Session, which
// is not safe for concurrent use: without it, two simultaneous HTTP requests
// for the same id race the session state (a live -race-detectable bug).
// core.Session.Close is the one call that needs no lock.
type session struct {
	sess      *core.Session
	lastTouch time.Time

	// tr/root are the per-session trace and its root span when the session
	// was sampled (nil otherwise). The algorithm goroutine appends hot-path
	// spans concurrently with request handlers appending HTTP spans — safe,
	// span creation is trace-mutex-protected. The trace is finished (and
	// becomes visible on /debug/traces) when the session leaves the table:
	// finish, abort or TTL expiry.
	tr   *trace.Trace
	root *trace.Span

	mu sync.Mutex
}

// Server is the HTTP handler. Create with New and mount it anywhere (it
// implements http.Handler).
type Server struct {
	ds          *dataset.Dataset
	eps         float64
	factory     AlgorithmFactory
	log         *slog.Logger
	reg         *obs.Registry
	ttl         time.Duration
	deadline    time.Duration
	start       time.Time
	now         func() time.Time // injectable clock for TTL tests
	journal     *wal.Log         // nil: sessions are memory-only
	fingerprint uint64           // dataset fingerprint journaled with each create
	baseSeed    int64            // per-session seeds are baseSeed+id ordinal
	maxSessions int              // admission gate; 0 disables
	work        chan struct{}    // bounded answer-work queue; nil disables
	tracer      *trace.Tracer    // nil: tracing disabled, /debug/traces 404s

	mu        sync.Mutex
	sessions  map[string]*session
	nextID    int
	lastSweep time.Time
	idem      *lruMap // Idempotency-Key → session id; guarded by mu
	draining  bool    // Drain in progress: no new sessions

	// completed caches the final response of recently finished sessions so a
	// round-indexed retry of the last answer can be replayed after the
	// session left the live table. Guarded by mu: a finishing session moves
	// from sessions to completed in one critical section (retire).
	completed *lruMap

	// Hot-path instruments, resolved once at construction.
	inFlight   *obs.Gauge
	active     *obs.Gauge
	created    *obs.Counter
	finished   *obs.Counter
	aborted    *obs.Counter
	evicted    *obs.Counter
	rounds     *obs.Histogram
	encodeErr  *obs.Counter
	degraded   *obs.Counter
	panics     *obs.Counter
	recovered  *obs.Counter
	recSkipped *obs.Counter
	journalErr *obs.Counter
	shedFull   *obs.Counter
	shedQueue  *obs.Counter
	shedDrain  *obs.Counter
	idemReplay *obs.Counter
	dupRounds  *obs.Counter
	roundConf  *obs.Counter
	drainKill  *obs.Counter
	staleRej   *obs.Counter
	followRej  *obs.Counter

	repl Replication // nil: standalone node
}

// Replication is the narrow view of a replication node (internal/repl.Node)
// the server needs: it gates session mutations on a deposed or catching-up
// node and feeds the /healthz replication block. The server deliberately
// does not import internal/repl — wiring happens in cmd/isrl-serve.
type Replication interface {
	// Role returns "primary" or "follower" (a promoted follower is "primary").
	Role() string
	// Epoch is the durable failover epoch.
	Epoch() uint64
	// Fenced reports a deposed primary: a higher epoch exists and every
	// journal append fails with a stale-epoch error.
	Fenced() bool
	// Lag is how far the passive side trails, in records and bytes.
	Lag() (records, bytes int64)
}

// Option configures a Server.
type Option func(*Server)

// WithLogger sets the structured logger. Per-request lines are emitted at
// Debug level; failures (JSON-encode errors, evictions) at Warn.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) {
		if l != nil {
			s.log = l
		}
	}
}

// WithRegistry sets the metrics registry exported at /metrics. The default
// is obs.Default(), so library-level counters (geom LP solves, published
// DQN stats) appear alongside the HTTP metrics.
func WithRegistry(r *obs.Registry) Option {
	return func(s *Server) {
		if r != nil {
			s.reg = r
		}
	}
}

// WithSessionTTL sets how long an untouched session survives before the
// sweeper evicts it. Zero or negative disables eviction.
func WithSessionTTL(d time.Duration) Option {
	return func(s *Server) { s.ttl = d }
}

// WithAnswerDeadline bounds how long a request may block waiting for the
// algorithm goroutine before the server answers 503 + Retry-After instead of
// tying up the connection. Zero or negative waits forever (the pre-deadline
// behaviour).
func WithAnswerDeadline(d time.Duration) Option {
	return func(s *Server) { s.deadline = d }
}

// WithJournal attaches a write-ahead journal: session creates, committed
// answers and finish/abort/expiry tombstones are logged (fsync-on-commit)
// so a restarted server can re-materialize in-flight sessions with
// Recover. Journal failures degrade durability, never availability — the
// session keeps serving and the fault surfaces on /healthz and in
// sessions.journal_errors.
func WithJournal(j *wal.Log) Option {
	return func(s *Server) { s.journal = j }
}

// WithSessionSeed sets the base of the per-session random-seed sequence
// (session N runs its algorithm with seed base+N). The seed is journaled at
// creation, so recovery rebuilds the identical algorithm instance.
func WithSessionSeed(base int64) Option {
	return func(s *Server) { s.baseSeed = base }
}

// WithMaxSessions caps concurrently live sessions. At capacity,
// POST /sessions sheds with 429 + Retry-After while existing sessions keep
// answering. Zero or negative disables the gate.
func WithMaxSessions(n int) Option {
	return func(s *Server) { s.maxSessions = n }
}

// WithAnswerQueue bounds how many requests may simultaneously drive session
// state; excess requests shed with 503 + Retry-After instead of stacking
// goroutines behind slow geometry. Zero or negative disables the bound
// (default DefaultAnswerQueue).
func WithAnswerQueue(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.work = make(chan struct{}, n)
		} else {
			s.work = nil
		}
	}
}

// WithTracer attaches a span tracer: sampled sessions get a per-session
// trace rooted at creation, threaded through the algorithm goroutine's hot
// paths, and exposed at /debug/traces once the session ends. A request
// carrying a sampled W3C traceparent header is always traced and adopts the
// inbound trace id. Nil (the default) disables tracing entirely.
func WithTracer(t *trace.Tracer) Option {
	return func(s *Server) { s.tracer = t }
}

// WithReplication attaches the replication node's status view: session
// routes answer 503 + Retry-After while this node is a follower still
// catching up, or permanently once it is fenced as a deposed primary, and
// /healthz reports role/epoch/lag. Nil (the default) means a standalone
// node ("solo" in /healthz).
func WithReplication(r Replication) Option {
	return func(s *Server) { s.repl = r }
}

// New builds a server for the given (already skyline-preprocessed) dataset
// and regret threshold.
func New(ds *dataset.Dataset, eps float64, factory AlgorithmFactory, opts ...Option) *Server {
	s := &Server{
		ds:          ds,
		eps:         eps,
		factory:     factory,
		log:         slog.Default(),
		reg:         obs.Default(),
		ttl:         DefaultSessionTTL,
		deadline:    DefaultAnswerDeadline,
		now:         time.Now,
		sessions:    make(map[string]*session),
		fingerprint: ds.Fingerprint(),
		baseSeed:    1,
		work:        make(chan struct{}, DefaultAnswerQueue),
		idem:        newLRUMap(idemKeyCap),
		completed:   newLRUMap(completedCap),
	}
	for _, opt := range opts {
		opt(s)
	}
	s.start = s.now()
	s.lastSweep = s.start
	s.inFlight = s.reg.Gauge("http.in_flight")
	s.active = s.reg.Gauge("sessions.active")
	s.created = s.reg.Counter("sessions.created")
	s.finished = s.reg.Counter("sessions.finished")
	s.aborted = s.reg.Counter("sessions.aborted")
	s.evicted = s.reg.Counter("sessions.evicted")
	s.rounds = s.reg.Histogram("sessions.rounds", obs.LinearBuckets(1, 1, 40))
	s.encodeErr = s.reg.Counter("http.encode_errors")
	s.degraded = s.reg.Counter("sessions.degraded")
	s.panics = s.reg.Counter("server.panics_recovered")
	s.recovered = s.reg.Counter("sessions.recovered")
	s.recSkipped = s.reg.Counter("sessions.recovery_skipped")
	s.journalErr = s.reg.Counter("sessions.journal_errors")
	s.shedFull = s.reg.Counter("server.shed.max_sessions")
	s.shedQueue = s.reg.Counter("server.shed.queue_full")
	s.shedDrain = s.reg.Counter("server.shed.draining")
	s.idemReplay = s.reg.Counter("sessions.idem_replays")
	s.dupRounds = s.reg.Counter("sessions.duplicate_rounds")
	s.roundConf = s.reg.Counter("sessions.round_conflicts")
	s.drainKill = s.reg.Counter("sessions.drain_expired")
	s.staleRej = s.reg.Counter("server.stale_epoch_rejected")
	s.followRej = s.reg.Counter("server.follower_rejected")
	return s
}

// Recover re-materializes unfinished journaled sessions: each one gets a
// fresh algorithm instance built from its journaled seed, and the committed
// answer prefix is replayed through the oracle before the session goes
// live — valid because the algorithms are deterministic given seed + trace.
// Tombstoned sessions are refused outright, as are sessions journaled
// against a different dataset fingerprint, threshold or algorithm (the
// operator changed flags between runs) or under another core.DrawVersion (an
// older binary drew other questions from the same seed): replaying would
// silently produce a different search. Returns how many sessions came back.
func (s *Server) Recover(states []wal.SessionState) int {
	n := 0
	maxID := 0
	for _, st := range states {
		var ord int
		if _, err := fmt.Sscanf(st.ID, "s%d", &ord); err == nil && ord > maxID {
			maxID = ord
		}
		if st.Finished {
			continue // tombstoned: finished, aborted or expired — stay dead
		}
		if st.Fingerprint != s.fingerprint {
			s.recSkipped.Inc()
			s.log.Warn("recovery skipped: dataset fingerprint mismatch", "id", st.ID)
			continue
		}
		if st.DrawVersion != core.DrawVersion {
			s.recSkipped.Inc()
			s.log.Warn("recovery skipped: draw version mismatch", "id", st.ID, "journaled", st.DrawVersion, "serving", core.DrawVersion)
			continue
		}
		if st.Eps != s.eps {
			s.recSkipped.Inc()
			s.log.Warn("recovery skipped: eps mismatch", "id", st.ID, "journaled", st.Eps, "serving", s.eps)
			continue
		}
		alg := s.factory(st.Seed)
		if alg.Name() != st.Algo {
			s.recSkipped.Inc()
			s.log.Warn("recovery skipped: algorithm mismatch", "id", st.ID, "journaled", st.Algo, "serving", alg.Name())
			continue
		}
		e := &session{
			sess:      core.NewSession(context.Background(), alg, s.ds, s.eps, st.Answers),
			lastTouch: s.now(),
		}
		s.mu.Lock()
		s.sessions[st.ID] = e
		if st.IdemKey != "" {
			// Restore the create's idempotency mapping so a client retrying
			// its POST /sessions across the crash still lands on this session.
			s.idem.put(st.IdemKey, st.ID)
		}
		s.active.Set(int64(len(s.sessions)))
		s.mu.Unlock()
		s.recovered.Inc()
		n++
		s.log.Info("session recovered", "id", st.ID, "answers", len(st.Answers))
	}
	s.mu.Lock()
	if maxID > s.nextID {
		s.nextID = maxID // never reuse a journaled id
	}
	s.mu.Unlock()
	return n
}

// journalCreate/journalAnswer/journalFinish wrap the journal hooks with the
// degrade-don't-fail policy: a disk fault is logged and counted, and
// surfaces on /healthz via the journal's sticky error, but never turns into
// a client-visible failure.
func (s *Server) journalCreate(ctx context.Context, id, algo string, seed int64, idemKey string) {
	if s.journal == nil {
		return
	}
	err := s.journal.AppendCreateCtx(ctx, wal.SessionState{
		ID: id, Algo: algo, Eps: s.eps, Seed: seed, Fingerprint: s.fingerprint, IdemKey: idemKey,
		DrawVersion: core.DrawVersion,
	})
	if err != nil {
		s.journalErr.Inc()
		s.log.Warn("journal create failed", "id", id, "err", err)
	}
}

func (s *Server) journalAnswer(ctx context.Context, id string, prefer bool) {
	if s.journal == nil {
		return
	}
	if err := s.journal.AppendAnswerCtx(ctx, id, prefer); err != nil {
		s.journalErr.Inc()
		s.log.Warn("journal answer failed", "id", id, "err", err)
	}
}

func (s *Server) journalFinish(ctx context.Context, id, reason string) {
	if s.journal == nil {
		return
	}
	if err := s.journal.AppendFinishCtx(ctx, id, reason); err != nil {
		s.journalErr.Inc()
		s.log.Warn("journal finish failed", "id", id, "reason", reason, "err", err)
	}
}

// questionPayload is the JSON shape of one pairwise question.
type questionPayload struct {
	First  []float64 `json:"first"`
	Second []float64 `json:"second"`
	Attrs  []string  `json:"attrs,omitempty"`
}

// statePayload is the JSON shape of a session snapshot. Round is the
// 1-based index the next answer must carry; it is absent once the session
// is done.
type statePayload struct {
	ID       string           `json:"id"`
	Done     bool             `json:"done"`
	Round    int              `json:"round,omitempty"`
	Question *questionPayload `json:"question,omitempty"`
	Result   *resultPayload   `json:"result,omitempty"`
	Error    string           `json:"error,omitempty"`
}

// resultPayload is the JSON shape of a finished search. Degraded marks a
// best-effort answer returned after the utility range emptied or a contained
// panic — still a valid tuple, but without the ε-regret certificate.
type resultPayload struct {
	PointIndex     int       `json:"point_index"`
	Point          []float64 `json:"point"`
	Rounds         int       `json:"rounds"`
	Degraded       bool      `json:"degraded,omitempty"`
	DegradedReason string    `json:"degraded_reason,omitempty"`
}

// answerPayload is the request body of POST /sessions/{id}/answer. Round,
// when positive, is the 1-based index of the question being answered — the
// exactly-once handle; zero (or absent) selects the legacy apply-blindly
// behaviour.
type answerPayload struct {
	PreferFirst bool `json:"prefer_first"`
	Round       int  `json:"round,omitempty"`
}

// conflictPayload is the 409 body for out-of-sync rounds: Round tells the
// client which round the server expects next, so it can resynchronize with
// one GET instead of guessing.
type conflictPayload struct {
	Error string `json:"error"`
	Round int    `json:"round"`
}

// completedEntry is the cached final response of a finished session.
type completedEntry struct {
	round int    // round index of the session's last applied answer
	body  []byte // exact bytes of the final response
}

// statusWriter captures the response status for metrics and logging.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// ServeHTTP implements http.Handler: the instrumentation middleware wrapped
// around the router.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := s.now()
	s.maybeSweep(start)
	s.inFlight.Inc()
	defer s.inFlight.Dec()
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	route := s.route(sw, r)
	elapsedMS := float64(s.now().Sub(start)) / float64(time.Millisecond)
	s.reg.Counter("http.requests." + route).Inc()
	s.reg.Counter(fmt.Sprintf("http.responses.%s.%dxx", route, sw.status/100)).Inc()
	s.reg.Histogram("http.latency_ms."+route, obs.LatencyBuckets()).Observe(elapsedMS)
	s.log.Debug("http request",
		"method", r.Method, "path", r.URL.Path, "route", route,
		"status", sw.status, "ms", elapsedMS)
}

// route dispatches one request and returns the route label used for
// metrics, so cardinality stays bounded no matter what paths clients send.
func (s *Server) route(w http.ResponseWriter, r *http.Request) string {
	path := strings.Trim(r.URL.Path, "/")
	parts := strings.Split(path, "/")
	switch {
	case len(parts) == 1 && parts[0] == "healthz":
		if r.Method != http.MethodGet {
			s.methodNotAllowed(w, r, http.MethodGet)
			return "healthz"
		}
		s.healthz(w)
		return "healthz"
	case len(parts) == 1 && parts[0] == "metrics":
		if r.Method != http.MethodGet {
			s.methodNotAllowed(w, r, http.MethodGet)
			return "metrics"
		}
		s.metrics(w, r)
		return "metrics"
	case (len(parts) == 2 || len(parts) == 3) && parts[0] == "debug" && parts[1] == "traces":
		if r.Method != http.MethodGet {
			s.methodNotAllowed(w, r, http.MethodGet)
			return "debug_traces"
		}
		if s.tracer == nil {
			s.httpError(w, http.StatusNotFound, "tracing disabled; start with a tracer (isrl-serve -trace-sample)")
			return "debug_traces"
		}
		id := ""
		if len(parts) == 3 {
			id = parts[2]
		}
		s.tracer.HandleTraces(w, r, id)
		return "debug_traces"
	case len(parts) == 1 && parts[0] == "sessions":
		if r.Method != http.MethodPost {
			s.methodNotAllowed(w, r, http.MethodPost)
			return "create_session"
		}
		if !s.replGate(w) {
			return "create_session"
		}
		if !s.acquireWork(w) {
			return "create_session"
		}
		s.create(w, r)
		s.releaseWork()
		return "create_session"
	case len(parts) == 2 && parts[0] == "sessions":
		switch r.Method {
		case http.MethodGet:
			if !s.replGate(w) {
				return "get_session"
			}
			if !s.acquireWork(w) {
				return "get_session"
			}
			s.state(w, parts[1])
			s.releaseWork()
			return "get_session"
		case http.MethodDelete:
			if !s.replGate(w) {
				return "delete_session"
			}
			s.abort(w, parts[1])
			return "delete_session"
		default:
			s.methodNotAllowed(w, r, http.MethodGet, http.MethodDelete)
			return "get_session"
		}
	case len(parts) == 3 && parts[0] == "sessions" && parts[2] == "answer":
		if r.Method != http.MethodPost {
			s.methodNotAllowed(w, r, http.MethodPost)
			return "answer"
		}
		if !s.replGate(w) {
			return "answer"
		}
		if !s.acquireWork(w) {
			return "answer"
		}
		s.answer(w, r, parts[1])
		s.releaseWork()
		return "answer"
	default:
		s.httpError(w, http.StatusNotFound, "no route for %s %s", r.Method, r.URL.Path)
		return "other"
	}
}

// replGate rejects session traffic this node must not serve: a fenced
// (deposed) primary would split-brain on any mutation, and a follower has
// no live sessions yet — even GETs answer 503 so a failover-aware client
// rotates to the other endpoint instead of treating a 404 as definitive.
// Health and metrics routes bypass the gate.
func (s *Server) replGate(w http.ResponseWriter) bool {
	if s.repl == nil {
		return true
	}
	if s.repl.Fenced() {
		s.staleRej.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter()))
		s.httpError(w, http.StatusServiceUnavailable,
			"stale epoch: this node was deposed (epoch %d); retry against the new primary", s.repl.Epoch())
		return false
	}
	if s.repl.Role() == "follower" {
		records, _ := s.repl.Lag()
		s.followRej.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter()))
		s.httpError(w, http.StatusServiceUnavailable,
			"follower catching up (lag %d records); retry against the primary", records)
		return false
	}
	return true
}

// methodNotAllowed writes a 405 with the RFC 9110-required Allow header.
func (s *Server) methodNotAllowed(w http.ResponseWriter, r *http.Request, allowed ...string) {
	w.Header().Set("Allow", strings.Join(allowed, ", "))
	s.httpError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
}

// healthz is the liveness probe: the process is up and the dataset loaded.
// With a journal attached it doubles as the durability probe: a sticky
// write/fsync error flips status to "degraded" — the server still answers,
// but commits are no longer guaranteed on disk.
func (s *Server) healthz(w http.ResponseWriter) {
	s.mu.Lock()
	active := len(s.sessions)
	s.mu.Unlock()
	payload := map[string]any{
		"status":          "ok",
		"uptime_s":        s.now().Sub(s.start).Seconds(),
		"dataset_tuples":  s.ds.Len(),
		"dataset_dim":     s.ds.Dim(),
		"active_sessions": active,
	}
	if s.journal != nil {
		j := map[string]any{
			"enabled":      true,
			"dir":          s.journal.Dir(),
			"fsync_errors": s.journal.FsyncErrors(),
		}
		if err := s.journal.Err(); err != nil {
			j["error"] = err.Error()
			payload["status"] = "degraded"
		}
		// Self-healing state: quarantined sealed segments degrade durability
		// of *history*, not of the live tail — commits still land, the scrub
		// counters tell the operator what anti-entropy is working on — so
		// integrity alone never flips status.
		j["integrity"] = s.journal.Integrity()
		payload["journal"] = j
	}
	if s.repl == nil {
		payload["replication"] = map[string]any{"role": "solo"}
	} else {
		records, bytes := s.repl.Lag()
		rep := map[string]any{
			"role":        s.repl.Role(),
			"epoch":       s.repl.Epoch(),
			"fenced":      s.repl.Fenced(),
			"lag_records": records,
			"lag_bytes":   bytes,
		}
		if s.repl.Fenced() {
			// A deposed primary still answers probes but cannot commit; that
			// is a degraded node an operator must re-seed.
			payload["status"] = "degraded"
		}
		payload["replication"] = rep
	}
	// Probes and scrapers must always see fresh state, never a cached copy.
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("Content-Type", "application/json")
	s.encode(w, payload)
}

// metrics exports the registry: JSON by default, expvar-style text with
// ?format=text, Prometheus text exposition with ?format=prom or a
// text/plain Accept header (what a Prometheus scraper sends).
func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	s.reg.FloatGauge("server.uptime_s").Set(s.now().Sub(s.start).Seconds())
	obs.CollectRuntime(s.reg)
	w.Header().Set("Cache-Control", "no-store")
	format := r.URL.Query().Get("format")
	if format == "" && strings.Contains(r.Header.Get("Accept"), "text/plain") {
		format = "prom"
	}
	var err error
	switch format {
	case "prom":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		err = s.reg.WriteProm(w)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		err = s.reg.WriteText(w)
	default:
		w.Header().Set("Content-Type", "application/json")
		err = s.reg.WriteJSON(w)
	}
	if err != nil {
		s.encodeErr.Inc()
		s.log.Warn("metrics export failed", "err", err)
	}
}

func (s *Server) create(w http.ResponseWriter, r *http.Request) {
	key := r.Header.Get("Idempotency-Key")
	if len(key) > maxIdemKeyBytes {
		s.httpError(w, http.StatusBadRequest, "Idempotency-Key exceeds %d bytes", maxIdemKeyBytes)
		return
	}
	now := s.now()
	s.mu.Lock()
	if key != "" {
		// The key lookup and the create below share one critical section, so
		// two concurrent retries of the same create cannot both miss and
		// leak a duplicate session.
		if v, ok := s.idem.get(key); ok {
			id := v.(string)
			e, final := s.lookupLocked(id)
			s.mu.Unlock()
			s.idemReplay.Inc()
			w.Header().Set("Idempotency-Replayed", "true")
			if e != nil {
				s.echoTraceparent(w, e)
				s.respondState(context.Background(), w, id, e, http.StatusOK)
				return
			}
			if final != nil {
				s.writeStored(w, http.StatusOK, final.body)
				return
			}
			s.httpError(w, http.StatusConflict,
				"Idempotency-Key %q refers to session %q, which is gone", key, id)
			return
		}
	}
	if s.draining {
		s.mu.Unlock()
		s.shedDrain.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter()))
		s.httpError(w, http.StatusServiceUnavailable,
			"server draining; not accepting new sessions")
		return
	}
	if s.maxSessions > 0 && len(s.sessions) >= s.maxSessions {
		n := len(s.sessions)
		s.mu.Unlock()
		s.shedFull.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter()))
		s.httpError(w, http.StatusTooManyRequests,
			"session capacity reached (%d live); retry later", n)
		return
	}
	s.nextID++
	id := fmt.Sprintf("s%d", s.nextID)
	seed := s.baseSeed + int64(s.nextID)
	alg := s.factory(seed)
	tr, root := s.startSessionTrace(r, id, alg.Name(), seed)
	ctx := context.Background()
	if root != nil {
		ctx = trace.ContextWithSpan(ctx, root)
	}
	e := &session{sess: core.NewSession(ctx, alg, s.ds, s.eps, nil), lastTouch: now, tr: tr, root: root}
	s.sessions[id] = e
	if key != "" {
		s.idem.put(key, id)
	}
	s.active.Set(int64(len(s.sessions)))
	s.mu.Unlock()
	// Journal before the id is revealed to the client: no answer for this
	// session can be journaled (or even sent) until the create is durable.
	s.journalCreate(ctx, id, alg.Name(), seed, key)
	s.created.Inc()
	s.echoTraceparent(w, e)
	s.respondState(ctx, w, id, e, http.StatusCreated)
}

// startSessionTrace decides whether this session is traced and opens its
// trace. An inbound sampled W3C traceparent always wins (the trace id is
// adopted, so the caller's distributed trace connects through); otherwise the
// deterministic per-seed sampler decides. Returns (nil, nil) when untraced.
func (s *Server) startSessionTrace(r *http.Request, id, algo string, seed int64) (*trace.Trace, *trace.Span) {
	if s.tracer == nil {
		return nil, nil
	}
	var tid trace.TraceID
	if pid, _, sampled, ok := trace.ParseTraceparent(r.Header.Get("traceparent")); ok {
		if !sampled {
			return nil, nil // explicit upstream "don't trace" decision
		}
		tid = pid
	} else if !s.tracer.Sampled(seed) {
		return nil, nil
	}
	tr, root := s.tracer.StartTrace("session", tid, seed)
	if root != nil {
		root.SetAttr("session.id", id)
		root.SetAttr("algo", algo)
	}
	return tr, root
}

// echoTraceparent advertises the session's trace on the response so clients
// can correlate (and later fetch /debug/traces/{trace-id}).
func (s *Server) echoTraceparent(w http.ResponseWriter, e *session) {
	if e.tr != nil && e.root != nil {
		w.Header().Set("traceparent", trace.FormatTraceparent(e.tr.ID(), e.root.ID(), true))
	}
}

// finishSessionTrace closes a session's trace with its final disposition,
// making it visible on /debug/traces. Safe on untraced sessions.
func (s *Server) finishSessionTrace(e *session, reason string, rounds int, degraded bool) {
	if e == nil || e.tr == nil {
		return
	}
	if e.root != nil {
		e.root.SetAttr("reason", reason)
		if rounds >= 0 {
			e.root.SetInt("rounds", int64(rounds))
		}
		e.root.SetBool("degraded", degraded)
		e.root.End()
	}
	e.tr.Finish()
}

// lookup fetches a session and refreshes its TTL clock.
// lookup returns the live session id, touching it. When id is not live,
// final is the stored response of a session that finished recently, if any.
// Both tables are read in one critical section, and retire moves a finishing
// session between them in one, so a retry of its final answer always finds
// it in one of them.
func (s *Server) lookup(id string) (e *session, final *completedEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lookupLocked(id)
}

// lookupLocked is lookup for callers holding s.mu.
func (s *Server) lookupLocked(id string) (*session, *completedEntry) {
	if e := s.sessions[id]; e != nil {
		e.lastTouch = s.now()
		return e, nil
	}
	if v, ok := s.completed.get(id); ok {
		ent := v.(completedEntry)
		return nil, &ent
	}
	return nil, nil
}

// retire moves the finished session id from the live table to the completed
// cache in one critical section, parking body, its final response, when
// there is one. It reports whether id was still live, so exactly one caller
// journals and counts the finish.
func (s *Server) retire(id string, round int, body []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sessions[id]; !ok {
		return false
	}
	delete(s.sessions, id)
	s.active.Set(int64(len(s.sessions)))
	if body != nil {
		s.completed.put(id, completedEntry{round: round, body: body})
	}
	return true
}

func (s *Server) state(w http.ResponseWriter, id string) {
	e, _ := s.lookup(id)
	if e == nil {
		s.httpError(w, http.StatusNotFound, "unknown session %q", id)
		return
	}
	sp := e.root.StartChild("http.get_session")
	defer sp.End()
	s.echoTraceparent(w, e)
	s.respondState(trace.ContextWithSpan(context.Background(), sp), w, id, e, http.StatusOK)
}

// jsonContentType accepts application/json, any +json structured suffix, or
// an absent header (plenty of curl-style clients omit it). Everything else —
// form posts, multipart uploads, text/plain — is an explicit mismatch worth
// rejecting before the body is even read.
func jsonContentType(ct string) bool {
	if ct == "" {
		return true
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return false
	}
	return mt == "application/json" || strings.HasSuffix(mt, "+json")
}

func (s *Server) answer(w http.ResponseWriter, r *http.Request, id string) {
	if ct := r.Header.Get("Content-Type"); !jsonContentType(ct) {
		s.httpError(w, http.StatusUnsupportedMediaType, "content type %q not supported; send application/json", ct)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxAnswerBytes)
	var body answerPayload
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.httpError(w, http.StatusRequestEntityTooLarge, "answer body exceeds %d bytes", maxAnswerBytes)
			return
		}
		s.httpError(w, http.StatusBadRequest, "bad answer body: %v", err)
		return
	}
	if body.Round < 0 {
		s.httpError(w, http.StatusBadRequest, "negative round %d", body.Round)
		return
	}
	e, final := s.lookup(id)
	if e == nil {
		// The session may have just finished: a round-indexed retry of the
		// final answer (whose response was lost on the wire) replays the
		// stored final state instead of 404ing the client out of its result.
		if body.Round > 0 && final != nil {
			if body.Round == final.round {
				s.dupRounds.Inc()
				s.writeStored(w, http.StatusOK, final.body)
				return
			}
			s.roundConf.Inc()
			s.conflict(w, final.round,
				"round %d does not match finished session %q (last applied %d)", body.Round, id, final.round)
			return
		}
		s.httpError(w, http.StatusNotFound, "unknown session %q", id)
		return
	}
	sp := e.root.StartChild("http.answer")
	defer sp.End()
	ctx := trace.ContextWithSpan(context.Background(), sp)
	s.echoTraceparent(w, e)
	e.mu.Lock()
	if body.Round > 0 {
		applied := e.sess.Applied()
		switch {
		case body.Round == applied:
			// Duplicate of the round just applied — the retry of a POST whose
			// response was lost. The first attempt's effect stands; re-deliver
			// the stored next question instead of corrupting the polytope by
			// applying the preference twice.
			e.mu.Unlock()
			s.dupRounds.Inc()
			s.respondState(ctx, w, id, e, http.StatusOK)
			return
		case body.Round != applied+1:
			e.mu.Unlock()
			s.roundConf.Inc()
			s.conflict(w, applied+1,
				"round %d out of sync with session %q (expected %d)", body.Round, id, applied+1)
			return
		}
	}
	// Ensure a question is pending (Next is idempotent for pending ones).
	_, _, done, ready := e.sess.NextTimeout(s.deadline)
	if !ready {
		e.mu.Unlock()
		s.notReady(w, id)
		return
	}
	if done {
		e.mu.Unlock()
		s.httpError(w, http.StatusConflict, "session already finished")
		return
	}
	err := e.sess.Answer(body.PreferFirst)
	if err == nil {
		// Commit the answer to the journal before releasing the session
		// lock, so journaled round order always matches session order. A
		// crash after Answer but before the append loses at most this one
		// answer: recovery then re-delivers the same question.
		s.journalAnswer(ctx, id, body.PreferFirst)
	}
	e.mu.Unlock()
	if err != nil {
		s.httpError(w, http.StatusConflict, "%v", err)
		return
	}
	s.respondState(ctx, w, id, e, http.StatusOK)
}

// notReady reports 503 with Retry-After: the algorithm goroutine did not
// produce the next state within the configured deadline. The session stays
// alive; the client should simply retry.
func (s *Server) notReady(w http.ResponseWriter, id string) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter()))
	s.httpError(w, http.StatusServiceUnavailable,
		"session %q not ready within %s; retry", id, s.deadline)
}

// acquireWork reserves a slot on the bounded answer-work queue, shedding
// with 503 + Retry-After when the server is already driving as many
// sessions as configured. Pair with releaseWork.
func (s *Server) acquireWork(w http.ResponseWriter) bool {
	if s.work == nil {
		return true
	}
	select {
	case s.work <- struct{}{}:
		return true
	default:
		s.shedQueue.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter()))
		s.httpError(w, http.StatusServiceUnavailable,
			"answer-work queue full (%d slots); retry", cap(s.work))
		return false
	}
}

func (s *Server) releaseWork() {
	if s.work != nil {
		<-s.work
	}
}

func (s *Server) abort(w http.ResponseWriter, id string) {
	s.mu.Lock()
	e, ok := s.sessions[id]
	delete(s.sessions, id)
	s.active.Set(int64(len(s.sessions)))
	s.mu.Unlock()
	if !ok {
		s.httpError(w, http.StatusNotFound, "unknown session %q", id)
		return
	}
	e.sess.Close()
	s.journalFinish(context.Background(), id, wal.ReasonAborted)
	s.finishSessionTrace(e, wal.ReasonAborted, -1, false)
	s.aborted.Inc()
	w.WriteHeader(http.StatusNoContent)
}

// respondState advances to the next question (or result) and serializes it.
// It takes e.mu itself, so callers must not hold it. When the session
// finishes, the exact response bytes are parked in the completed cache as
// the session leaves the live table, before its tombstone is journaled, so
// a round-indexed retry of the final answer can be replayed verbatim at any
// moment. ctx carries the request's span, under which the finishing
// tombstone's WAL append is traced.
func (s *Server) respondState(ctx context.Context, w http.ResponseWriter, id string, e *session, status int) {
	e.mu.Lock()
	pi, pj, done, ready := e.sess.NextTimeout(s.deadline)
	if !ready {
		e.mu.Unlock()
		s.notReady(w, id)
		return
	}
	applied := e.sess.Applied()
	out := statePayload{ID: id, Done: done}
	var res core.Result
	var err error
	if done {
		res, err = e.sess.Result()
		e.mu.Unlock()
		var pe *core.PanicError
		if err != nil {
			out.Error = err.Error()
			if errors.As(err, &pe) {
				// Algorithm goroutine panicked outside any Guard boundary;
				// the session died but the process (and every other
				// session) keeps running.
				s.panics.Inc()
				s.log.Warn("session ended by recovered panic", "id", id, "err", err)
			}
		} else {
			out.Result = &resultPayload{
				PointIndex:     res.PointIndex,
				Point:          res.Point,
				Rounds:         res.Rounds,
				Degraded:       res.Degraded,
				DegradedReason: res.DegradedReason,
			}
			if res.PanicsRecovered > 0 {
				s.panics.Add(int64(res.PanicsRecovered))
			}
			if res.Degraded {
				s.degraded.Inc()
				s.log.Warn("session degraded", "id", id, "reason", res.DegradedReason)
			}
		}
	} else {
		e.mu.Unlock()
		out.Round = applied + 1
		out.Question = &questionPayload{First: pi, Second: pj, Attrs: s.ds.Attrs}
	}
	data, merr := json.Marshal(out)
	if merr == nil {
		data = append(data, '\n')
	}
	if done && s.retire(id, applied, data) {
		s.journalFinish(ctx, id, wal.ReasonFinished)
		s.finished.Inc()
		if err == nil {
			s.rounds.Observe(float64(res.Rounds))
			s.finishSessionTrace(e, wal.ReasonFinished, res.Rounds, res.Degraded)
		} else {
			s.finishSessionTrace(e, wal.ReasonFinished, -1, false)
		}
	}
	if merr != nil {
		s.encodeErr.Inc()
		s.log.Warn("response encode failed", "err", merr)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		return
	}
	s.writeStored(w, status, data)
}

// conflict reports 409 with the round the server expects next, so an
// out-of-sync client can resynchronize deterministically instead of
// guessing (or worse, re-sending a stale preference blindly).
func (s *Server) conflict(w http.ResponseWriter, round int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusConflict)
	s.encode(w, conflictPayload{Error: fmt.Sprintf(format, args...), Round: round})
}

// writeStored writes pre-marshaled JSON response bytes.
func (s *Server) writeStored(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		s.encodeErr.Inc()
		s.log.Warn("response write failed", "err", err)
	}
}

// Drain puts the server into shutdown mode: new session creates are refused
// with 503 + Retry-After (existing sessions keep answering), and in-flight
// sessions get up to grace to finish on their own. Sessions still alive when
// the grace expires are closed with a journaled expiry tombstone — durable,
// so a later restart recovers them instead of losing their answer prefix
// silently. Returns how many sessions were force-expired.
func (s *Server) Drain(grace time.Duration) int {
	s.mu.Lock()
	s.draining = true
	live := len(s.sessions)
	s.mu.Unlock()
	s.log.Info("drain started", "live_sessions", live, "grace", grace)

	deadline := s.now().Add(grace)
	for {
		s.mu.Lock()
		n := len(s.sessions)
		s.mu.Unlock()
		if n == 0 {
			return 0
		}
		if grace <= 0 || !s.now().Before(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	s.mu.Lock()
	var victims []*session
	var victimIDs []string
	for id, e := range s.sessions {
		delete(s.sessions, id)
		victims = append(victims, e)
		victimIDs = append(victimIDs, id)
	}
	s.active.Set(int64(len(s.sessions)))
	s.mu.Unlock()
	for i, e := range victims {
		e.sess.Close()
		s.journalFinish(context.Background(), victimIDs[i], wal.ReasonExpired)
		s.finishSessionTrace(e, wal.ReasonExpired, -1, false)
	}
	if len(victims) > 0 {
		s.drainKill.Add(int64(len(victims)))
		s.log.Warn("drain grace expired; sessions tombstoned", "count", len(victims))
	}
	return len(victims)
}

// encode serializes v to w, logging (rather than dropping) encode errors —
// they mean a client went away mid-response or a payload is unencodable,
// both worth seeing in logs and metrics.
func (s *Server) encode(w http.ResponseWriter, v any) {
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.encodeErr.Inc()
		s.log.Warn("response encode failed", "err", err)
	}
}

func (s *Server) httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	s.encode(w, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// Sweep evicts sessions idle past the TTL and returns how many were
// closed. It is called lazily from the request path and may also be driven
// by a periodic ticker (cmd/isrl-serve does) so idle servers still reclaim
// goroutines.
func (s *Server) Sweep() int { return s.sweepExpired(s.now()) }

// maybeSweep runs an eviction pass at most every ttl/4.
func (s *Server) maybeSweep(now time.Time) {
	if s.ttl <= 0 {
		return
	}
	s.mu.Lock()
	due := now.Sub(s.lastSweep) >= s.ttl/4
	if due {
		s.lastSweep = now
	}
	s.mu.Unlock()
	if due {
		s.sweepExpired(now)
	}
}

func (s *Server) sweepExpired(now time.Time) int {
	if s.ttl <= 0 {
		return 0
	}
	s.mu.Lock()
	var victims []*session
	var victimIDs []string
	for id, e := range s.sessions {
		if now.Sub(e.lastTouch) > s.ttl {
			delete(s.sessions, id)
			victims = append(victims, e)
			victimIDs = append(victimIDs, id)
		}
	}
	s.active.Set(int64(len(s.sessions)))
	s.mu.Unlock()
	for i, e := range victims {
		e.sess.Close()
		// Journal the expiry tombstone: eviction must be as durable as
		// creation, or a restart would resurrect sessions the TTL already
		// killed (and leak their goroutines all over again).
		s.journalFinish(context.Background(), victimIDs[i], wal.ReasonExpired)
		s.finishSessionTrace(e, wal.ReasonExpired, -1, false)
	}
	if len(victims) > 0 {
		s.evicted.Add(int64(len(victims)))
		s.log.Warn("evicted idle sessions", "count", len(victims), "ttl", s.ttl)
	}
	return len(victims)
}
