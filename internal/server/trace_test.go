package server

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"isrl/internal/baselines"
	"isrl/internal/core"
	"isrl/internal/dataset"
	"isrl/internal/ea"
	"isrl/internal/obs"
	"isrl/internal/trace"
	"isrl/internal/wal"
)

// traceServer builds a server with tracing enabled over an EA factory, so
// session rounds run the instrumented geometry/LP hot paths. extra options
// are applied after the tracing ones.
func traceServer(t *testing.T, rate float64, extra ...Option) (*Server, *trace.Tracer) {
	t.Helper()
	ds := dataset.Anticorrelated(rand.New(rand.NewSource(1)), 200, 3).Skyline()
	reg := obs.NewRegistry()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	tracer := trace.New(trace.Options{SampleRate: rate, Logger: quiet, Registry: reg})
	srv := New(ds, 0.15, func(seed int64) core.Algorithm {
		return ea.New(ds, 0.15, ea.Config{}, rand.New(rand.NewSource(seed)))
	}, append([]Option{WithRegistry(reg), WithLogger(quiet), WithTracer(tracer)}, extra...)...)
	return srv, tracer
}

// driveSession runs one session to completion without t.Fatal, so it is
// callable from concurrent goroutines. It returns the trace ID echoed on the
// create response ("" when untraced).
func driveSession(srv *Server, header string) (string, error) {
	truth := core.SimulatedUser{Utility: []float64{0.2, 0.5, 0.3}}
	post := func(path string, body any) (*httptest.ResponseRecorder, statePayload, error) {
		var buf strings.Builder
		if body != nil {
			if err := json.NewEncoder(&buf).Encode(body); err != nil {
				return nil, statePayload{}, err
			}
		}
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(buf.String()))
		if header != "" && path == "/sessions" {
			req.Header.Set("traceparent", header)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		var out statePayload
		if rec.Code < 300 {
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				return nil, statePayload{}, fmt.Errorf("bad JSON (%d): %s", rec.Code, rec.Body.String())
			}
		}
		return rec, out, nil
	}
	rec, state, err := post("/sessions", nil)
	if err != nil {
		return "", err
	}
	if rec.Code != http.StatusCreated {
		return "", fmt.Errorf("create status %d: %s", rec.Code, rec.Body.String())
	}
	traceID := ""
	if tp := rec.Header().Get("traceparent"); tp != "" {
		tid, _, sampled, ok := trace.ParseTraceparent(tp)
		if !ok || !sampled {
			return "", fmt.Errorf("create echoed malformed traceparent %q", tp)
		}
		traceID = tid.String()
	}
	for rounds := 0; !state.Done; rounds++ {
		if rounds > 200 {
			return "", fmt.Errorf("session %s did not finish", state.ID)
		}
		if state.Question == nil {
			return "", fmt.Errorf("no question and not done: %+v", state)
		}
		prefer := truth.Prefer(state.Question.First, state.Question.Second)
		rec, state, err = post("/sessions/"+state.ID+"/answer", answerPayload{PreferFirst: prefer})
		if err != nil {
			return "", err
		}
		if rec.Code != http.StatusOK {
			return "", fmt.Errorf("answer status %d: %s", rec.Code, rec.Body.String())
		}
	}
	return traceID, nil
}

// tracePayload mirrors the /debug/traces/{id} JSON shape.
type tracePayload struct {
	Trace struct {
		ID    string `json:"id"`
		Name  string `json:"name"`
		Spans int    `json:"spans"`
	} `json:"trace"`
	Spans []*traceNode `json:"spans"`
}

type traceNode struct {
	Name     string            `json:"name"`
	Attrs    map[string]string `json:"attrs"`
	Children []*traceNode      `json:"children"`
}

func collectNames(nodes []*traceNode, into map[string]int) {
	for _, n := range nodes {
		into[n.Name]++
		collectNames(n.Children, into)
	}
}

func fetchTrace(t *testing.T, srv *Server, id string) tracePayload {
	t.Helper()
	rec := get(t, srv, "/debug/traces/"+id)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/traces/%s = %d: %s", id, rec.Code, rec.Body.String())
	}
	var tp tracePayload
	if err := json.Unmarshal(rec.Body.Bytes(), &tp); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	return tp
}

// TestTraceEndToEnd is the acceptance flow: a created session adopts the
// inbound traceparent, the full answer loop runs under it, and the finished
// trace is retrievable with the session root, per-round spans, and the
// instrumented hot-path leaves.
func TestTraceEndToEnd(t *testing.T) {
	srv, _ := traceServer(t, 1)
	inbound := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	traceID, err := driveSession(srv, inbound)
	if err != nil {
		t.Fatal(err)
	}
	if traceID != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("trace ID %s, want the inbound traceparent's ID adopted", traceID)
	}

	tp := fetchTrace(t, srv, traceID)
	if tp.Trace.ID != traceID || len(tp.Spans) != 1 {
		t.Fatalf("trace = %+v, want one root", tp.Trace)
	}
	root := tp.Spans[0]
	if root.Name != "session" {
		t.Fatalf("root span %q, want session", root.Name)
	}
	if root.Attrs["session.id"] == "" || root.Attrs["algo"] == "" {
		t.Fatalf("root attrs = %v, want session.id and algo", root.Attrs)
	}
	if root.Attrs["reason"] != "finished" {
		t.Fatalf("root reason = %q, want finished", root.Attrs["reason"])
	}
	if root.Attrs["rounds"] == "" || root.Attrs["rounds"] == "0" {
		t.Fatalf("root rounds attr = %q, want positive", root.Attrs["rounds"])
	}

	names := map[string]int{}
	collectNames(tp.Spans, names)
	if names["session.round"] == 0 {
		t.Fatalf("no session.round spans in %v", names)
	}
	if names["http.answer"] == 0 {
		t.Fatalf("no http.answer spans in %v", names)
	}
	hot := 0
	for _, n := range []string{"lp.solve", "geom.vertices", "geom.sample", "geom.inner_ball", "geom.outer_rect", "rl.best", "oracle.wait"} {
		if names[n] > 0 {
			hot++
		}
	}
	if hot < 3 {
		t.Fatalf("only %d distinct hot-path span kinds in %v, want >= 3", hot, names)
	}

	// The list view and the text rendering both cover the finished trace.
	rec := get(t, srv, "/debug/traces")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), traceID) {
		t.Fatalf("list does not include %s: %d %s", traceID, rec.Code, rec.Body.String())
	}
	rec = get(t, srv, "/debug/traces/"+traceID+"?format=text")
	if !strings.Contains(rec.Body.String(), "session.round") {
		t.Fatalf("text view missing round spans:\n%s", rec.Body.String())
	}
}

// The answer that finishes a session journals two records, its answer and
// the session's tombstone, and both commits belong to that answer's
// http.answer span: each shows up as a wal.append child with its own
// wal.fsync sibling.
func TestFinishingAnswerTracesTombstone(t *testing.T) {
	log, _, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	srv, _ := traceServer(t, 1, WithJournal(log))
	traceID, err := driveSession(srv, "00-3af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	if err != nil {
		t.Fatal(err)
	}
	var last *traceNode
	for _, c := range fetchTrace(t, srv, traceID).Spans[0].Children {
		if c.Name == "http.answer" {
			last = c
		}
	}
	if last == nil {
		t.Fatal("no http.answer spans under the session root")
	}
	kinds := map[string]int{}
	fsyncs := 0
	for _, c := range last.Children {
		switch c.Name {
		case "wal.append":
			kinds[c.Attrs["kind"]]++
		case "wal.fsync":
			fsyncs++
		}
	}
	answer, finish := strconv.Itoa(int(wal.KindAnswer)), strconv.Itoa(int(wal.KindFinish))
	if kinds[answer] != 1 || kinds[finish] != 1 || fsyncs != 2 {
		t.Fatalf("finishing http.answer has wal.append kinds %v and %d wal.fsync children; "+
			"want one answer and one tombstone append, each fsynced", kinds, fsyncs)
	}
}

// A sampled UH-Simplex session runs on the same interaction loop as EA and
// AA, so its trace carries the per-round spans too: session.round under the
// session root, each with an oracle.wait leaf, and the geometry beneath.
func TestTraceUHSimplexSessionRounds(t *testing.T) {
	ds := dataset.Anticorrelated(rand.New(rand.NewSource(1)), 200, 3).Skyline()
	reg := obs.NewRegistry()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	tracer := trace.New(trace.Options{SampleRate: 1, Logger: quiet, Registry: reg})
	srv := New(ds, 0.15, func(seed int64) core.Algorithm {
		return baselines.NewUHSimplex(baselines.UHConfig{}, rand.New(rand.NewSource(seed)))
	}, WithRegistry(reg), WithLogger(quiet), WithTracer(tracer))
	traceID, err := driveSession(srv, "00-4af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	if err != nil {
		t.Fatal(err)
	}
	root := fetchTrace(t, srv, traceID).Spans[0]
	if root.Attrs["algo"] != "UH-Simplex" {
		t.Fatalf("root algo = %q, want UH-Simplex", root.Attrs["algo"])
	}
	rounds, waits := 0, 0
	geometry := map[string]int{}
	for _, c := range root.Children {
		if c.Name != "session.round" {
			continue
		}
		rounds++
		for _, g := range c.Children {
			if g.Name == "oracle.wait" {
				waits++
			}
		}
		collectNames(c.Children, geometry)
	}
	if rounds == 0 || waits != rounds {
		t.Fatalf("%d session.round spans with %d oracle.wait children under the root; want one wait per round, at least one round",
			rounds, waits)
	}
	if geometry["geom.inc.clip"] == 0 {
		t.Fatalf("no geometry spans under the rounds: %v", geometry)
	}
}

func TestTraceparentControlsSampling(t *testing.T) {
	// At rate 0 nothing is traced organically...
	srv, _ := traceServer(t, 0)
	if id, err := driveSession(srv, ""); err != nil || id != "" {
		t.Fatalf("rate 0 session traced (id %q, err %v)", id, err)
	}
	// ...but a sampled inbound traceparent forces the trace.
	id, err := driveSession(srv, "00-1af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	if err != nil || id != "1af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("inbound traceparent not honored at rate 0 (id %q, err %v)", id, err)
	}
	// At rate 1 an explicitly unsampled traceparent suppresses tracing.
	srv2, _ := traceServer(t, 1)
	if id, err := driveSession(srv2, "00-2af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00"); err != nil || id != "" {
		t.Fatalf("unsampled traceparent still traced (id %q, err %v)", id, err)
	}
}

func TestDebugTracesRequiresTracer(t *testing.T) {
	srv, _, _ := obsServer(t) // no WithTracer
	rec := get(t, srv, "/debug/traces")
	if rec.Code != http.StatusNotFound || !strings.Contains(rec.Body.String(), "tracing disabled") {
		t.Fatalf("tracerless /debug/traces = %d %s", rec.Code, rec.Body.String())
	}
	srv2, _ := traceServer(t, 1)
	rec = httptest.NewRecorder()
	srv2.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/debug/traces", nil))
	if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != "GET" {
		t.Fatalf("POST /debug/traces = %d Allow=%q", rec.Code, rec.Header().Get("Allow"))
	}
}

// TestConcurrentSessionsDisjointTraces drives several sessions in parallel
// (under -race) and checks each lands in its own well-formed span tree.
func TestConcurrentSessionsDisjointTraces(t *testing.T) {
	srv, _ := traceServer(t, 1)
	const n = 6
	ids := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i], errs[i] = driveSession(srv, "")
		}(i)
	}
	wg.Wait()
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if ids[i] == "" || seen[ids[i]] {
			t.Fatalf("session %d trace id %q empty or duplicated", i, ids[i])
		}
		seen[ids[i]] = true
	}
	sessions := map[string]bool{}
	for _, id := range ids {
		tp := fetchTrace(t, srv, id)
		if len(tp.Spans) != 1 || tp.Spans[0].Name != "session" {
			t.Fatalf("trace %s has %d roots, want one session root", id, len(tp.Spans))
		}
		sid := tp.Spans[0].Attrs["session.id"]
		if sid == "" || sessions[sid] {
			t.Fatalf("trace %s session.id %q empty or shared", id, sid)
		}
		sessions[sid] = true
		names := map[string]int{}
		collectNames(tp.Spans, names)
		if names["session.round"] == 0 || names["lp.solve"] == 0 {
			t.Fatalf("trace %s missing round/hot-path spans: %v", id, names)
		}
	}
}
