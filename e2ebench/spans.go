package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"isrl/internal/core"
	"isrl/internal/dataset"
	"isrl/internal/server"
)

// span is one timed interval of a session. Bench spans are recorded around
// calls into each layer's public API; program spans are read back from the
// server's /debug/traces.
type span struct {
	Session string    `json:"session"`
	Name    string    `json:"name"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
}

// spanStore keeps every span of a traced run in memory, keyed by session id,
// plus the per-session algorithm timings the wrapper measures.
type spanStore struct {
	mu        sync.Mutex
	bySession map[string][]span
	loads     []float64 // ms per factory call
}

func newSpanStore() *spanStore {
	return &spanStore{bySession: make(map[string][]span)}
}

func (s *spanStore) add(sid, name string, start, end time.Time) {
	s.mu.Lock()
	s.bySession[sid] = append(s.bySession[sid], span{Session: sid, Name: name, Start: start, End: end})
	s.mu.Unlock()
}

// wrapFactory times each factory call and wraps the algorithm it returns.
// Session N's algorithm is built with seed base+N, which names the session.
func (s *spanStore) wrapFactory(f server.AlgorithmFactory, base int64) server.AlgorithmFactory {
	return func(seed int64) core.Algorithm {
		start := time.Now()
		alg := f(seed)
		d := ms(time.Since(start))
		s.mu.Lock()
		s.loads = append(s.loads, d)
		s.mu.Unlock()
		return &timedAlgorithm{inner: alg, sid: fmt.Sprintf("s%d", seed-base), spans: s}
	}
}

// timedAlgorithm is a core.Algorithm whose user records when the algorithm
// computes and when it waits: every gap between two Prefer calls is one
// round of computation, every Prefer call a wait for the user.
type timedAlgorithm struct {
	inner core.Algorithm
	sid   string
	spans *spanStore
}

func (a *timedAlgorithm) Name() string { return a.inner.Name() }

func (a *timedAlgorithm) Run(ds *dataset.Dataset, user core.User, eps float64, obs core.Observer) (core.Result, error) {
	return a.RunContext(context.Background(), ds, user, eps, obs)
}

// RunContext forwards the context so the session's trace reaches the
// algorithm exactly as it would unwrapped.
func (a *timedAlgorithm) RunContext(ctx context.Context, ds *dataset.Dataset, user core.User, eps float64, obs core.Observer) (core.Result, error) {
	u := &timedUser{inner: user, sid: a.sid, spans: a.spans, mark: time.Now(), name: "algo.first_round"}
	var res core.Result
	var err error
	if ca, ok := a.inner.(core.ContextAlgorithm); ok {
		res, err = ca.RunContext(ctx, ds, u, eps, obs)
	} else {
		res, err = a.inner.Run(ds, u, eps, obs)
	}
	a.spans.add(a.sid, u.name, u.mark, time.Now())
	return res, err
}

type timedUser struct {
	inner core.User
	sid   string
	spans *spanStore
	mark  time.Time // when the current computation started
	name  string    // what the current computation is
}

func (u *timedUser) Prefer(pi, pj []float64) bool {
	asked := time.Now()
	u.spans.add(u.sid, u.name, u.mark, asked)
	ans := u.inner.Prefer(pi, pj)
	u.mark, u.name = time.Now(), "algo.round"
	u.spans.add(u.sid, "oracle.wait", asked, u.mark)
	return ans
}

// middleware times the server's handler per route. Creates learn their
// session id from the response body.
func (s *spanStore) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		route, sid := classify(r)
		cw := &captureWriter{ResponseWriter: w, capture: route == "create"}
		h.ServeHTTP(cw, r)
		end := time.Now()
		if route == "create" {
			var body struct {
				ID string `json:"id"`
			}
			if json.Unmarshal(cw.body, &body) == nil {
				sid = body.ID
			}
		}
		s.add(sid, "server."+route, start, end)
	})
}

// classify maps a session request onto the client op names; sid is "" for
// creates and for routes outside /sessions.
func classify(r *http.Request) (route, sid string) {
	parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	switch {
	case parts[0] != "sessions":
		return "other", ""
	case len(parts) == 1:
		return "create", ""
	case len(parts) == 3 && parts[2] == "answer":
		return "answer", parts[1]
	case len(parts) == 2 && r.Method == http.MethodDelete:
		return "delete", parts[1]
	case len(parts) == 2:
		return "get", parts[1]
	}
	return "other", ""
}

type captureWriter struct {
	http.ResponseWriter
	capture bool
	body    []byte
}

func (w *captureWriter) Write(b []byte) (int, error) {
	if w.capture {
		w.body = append(w.body, b...)
	}
	return w.ResponseWriter.Write(b)
}

// programSpans are the spans of the program's own tracer that the
// attribution uses; the others time intervals the bench spans already
// cover (http.answer, session.round, oracle.wait).
var programSpans = map[string]bool{
	"wal.append": true,
	"wal.fsync":  true,
	"lp.solve":   true,
	"rl.best":    true,
	"par.do":     true,
}

type traceList struct {
	Traces []struct {
		ID   string `json:"id"`
		Name string `json:"name"`
	} `json:"traces"`
}

type traceNode struct {
	Name       string            `json:"name"`
	StartUS    int64             `json:"start_us"`
	DurationMS float64           `json:"duration_ms"`
	Attrs      map[string]string `json:"attrs"`
	Children   []*traceNode      `json:"children"`
}

type traceDoc struct {
	Trace struct {
		Start time.Time `json:"start"`
	} `json:"trace"`
	Spans []*traceNode `json:"spans"`
}

// collectProgramSpans reads every finished session trace from the server's
// /debug/traces and adds its program spans to the store.
func (s *spanStore) collectProgramSpans(ctx context.Context, hc *http.Client, base string) error {
	var list traceList
	if err := getJSON(ctx, hc, base+"/debug/traces", &list); err != nil {
		return err
	}
	for _, t := range list.Traces {
		if t.Name != "session" {
			continue
		}
		var doc traceDoc
		if err := getJSON(ctx, hc, base+"/debug/traces/"+t.ID, &doc); err != nil {
			return err
		}
		for _, root := range doc.Spans {
			sid := root.Attrs["session.id"]
			var walk func(n *traceNode)
			walk = func(n *traceNode) {
				if programSpans[n.Name] {
					start := doc.Trace.Start.Add(time.Duration(n.StartUS) * time.Microsecond)
					end := start.Add(time.Duration(n.DurationMS * float64(time.Millisecond)))
					s.add(sid, n.Name, start, end)
				}
				for _, c := range n.Children {
					walk(c)
				}
			}
			walk(root)
		}
	}
	return nil
}

func getJSON(ctx context.Context, hc *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, b)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// layers of the answer path, innermost last. Where two layers cover the
// same instant the later one is charged: the journal wins over the
// algorithm because the server's reply waits for the fsync while the
// algorithm computes the next question beside it.
var layers = []struct{ name, span string }{
	{"client", "client.answer"},
	{"server", "server.answer"},
	{"algo", "algo.round"},
	{"par", "par.do"},
	{"rl", "rl.best"},
	{"lp", "lp.solve"},
	{"wal_append", "wal.append"},
	{"wal_fsync", "wal.fsync"},
}

// attribution is the traced run's per-answer breakdown.
type attribution struct {
	answers      int                // answers attributed: their session's trace was collected
	clientMS     float64            // mean SDK answer span of the attributed answers
	allClientMS  float64            // mean SDK answer span of every answer
	serverMS     float64            // mean server answer span
	serverSelfMS float64            // mean server span not covered by the algorithm
	selfMS       map[string]float64 // mean self time per layer, by span name
	firstRound   []float64
	rounds       []float64 // ms per algo.round
	busyMS       float64   // algorithm compute per answer
	waitMS       float64   // algorithm blocked in Prefer per answer, think time excluded
	server       map[string][]float64
}

// serverSelf charges the server span's time to the algorithm round where
// the two overlap, leaving the server's own part: decode, session lock,
// WAL append and fsync, encode.
var serverSelf = map[string]int{"server.answer": 0, "algo.round": 1}

// clientCalls marks the SDK spans: while one is open the user is not
// thinking but waiting for the service.
var clientCalls = map[string]int{"client.create": 0, "client.answer": 0, "client.get": 0, "client.delete": 0, "client.dup": 0}

// attribute splits each traced answer's client-observed time among the
// layers: every instant of the SDK call is charged to the innermost layer
// whose span covers it, so the layer self times of an answer add up to its
// latency. Only answers completed inside win and sessions whose program
// trace was collected count.
func (s *spanStore) attribute(win window) attribution {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := attribution{selfMS: make(map[string]float64), server: make(map[string][]float64)}
	prio := make(map[string]int, len(layers))
	for i, l := range layers {
		prio[l.span] = i
	}
	var busy, wait, allClient float64
	var allAnswers int
	for _, spans := range s.bySession {
		traced := false
		for _, sp := range spans {
			if programSpans[sp.Name] {
				traced = true
				break
			}
		}
		for _, sp := range spans {
			if !win.contains(sp.End) {
				continue
			}
			d := ms(sp.End.Sub(sp.Start))
			switch {
			case strings.HasPrefix(sp.Name, "server."):
				a.server[sp.Name] = append(a.server[sp.Name], d)
			case sp.Name == "algo.first_round":
				a.firstRound = append(a.firstRound, d)
				busy += d
			case sp.Name == "algo.round":
				a.rounds = append(a.rounds, d)
				busy += d
			case sp.Name == "oracle.wait":
				// Charge only the part of the wait a client call was in
				// flight; the rest is the simulated user thinking.
				wait += d - partition(spans, sp, clientCalls)[sp.Name]
			case sp.Name == "client.answer":
				allAnswers++
				allClient += d
				if !traced {
					continue
				}
				a.answers++
				a.clientMS += d
				a.serverMS += partition(spans, sp, map[string]int{"server.answer": 0})["server.answer"]
				a.serverSelfMS += partition(spans, sp, serverSelf)["server.answer"]
				for name, v := range partition(spans, sp, prio) {
					a.selfMS[name] += v
				}
			}
		}
	}
	if n := len(a.rounds); n > 0 {
		a.busyMS = busy / float64(n)
		a.waitMS = wait / float64(n)
	}
	if allAnswers > 0 {
		a.allClientMS = allClient / float64(allAnswers)
	}
	if a.answers > 0 {
		n := float64(a.answers)
		a.clientMS /= n
		a.serverMS /= n
		a.serverSelfMS /= n
		for k := range a.selfMS {
			a.selfMS[k] /= n
		}
	}
	return a
}

// clip returns the part of sp inside [lo, hi]; ok is false when none is.
func clip(sp span, lo, hi time.Time) (start, end time.Time, ok bool) {
	s, e := sp.Start, sp.End
	if s.Before(lo) {
		s = lo
	}
	if e.After(hi) {
		e = hi
	}
	return s, e, e.After(s)
}

// partition charges every instant of outer to the highest-priority span of
// its session that covers it (outer itself has the lowest), returning ms
// per span name.
func partition(spans []span, outer span, prio map[string]int) map[string]float64 {
	type iv struct {
		s, e time.Time
		p    int
		name string
	}
	ivs := []iv{{outer.Start, outer.End, -1, outer.Name}}
	if p, ok := prio[outer.Name]; ok {
		ivs[0].p = p
	}
	for _, sp := range spans {
		p, ok := prio[sp.Name]
		if !ok || sp == outer {
			continue
		}
		if s, e, ok := clip(sp, outer.Start, outer.End); ok {
			ivs = append(ivs, iv{s, e, p, sp.Name})
		}
	}
	cuts := make([]time.Time, 0, 2*len(ivs))
	for _, v := range ivs {
		cuts = append(cuts, v.s, v.e)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i].Before(cuts[j]) })
	out := make(map[string]float64)
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if !hi.After(lo) {
			continue
		}
		best := -1
		for j, v := range ivs {
			if !v.s.After(lo) && !v.e.Before(hi) && (best < 0 || v.p > ivs[best].p) {
				best = j
			}
		}
		if best >= 0 {
			out[ivs[best].name] += ms(hi.Sub(lo))
		}
	}
	return out
}

// writeSpans saves every span as one JSON object per line, gzipped.
func (s *spanStore) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.bySession))
	for id := range s.bySession {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		for _, sp := range s.bySession[id] {
			if err := enc.Encode(sp); err != nil {
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}
