package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"isrl/internal/baselines"
	"isrl/internal/core"
	"isrl/internal/dataset"
	"isrl/internal/fault"
	"isrl/internal/obs"
)

// TestServerChaosConcurrentAnswers is the regression test for the
// per-session race: many goroutines hammering one session id with answers
// and reads must never trip the race detector or corrupt the protocol.
// Before the per-session mutex this failed under -race (concurrent
// core.Session.Next/Answer from separate handler goroutines).
func TestServerChaosConcurrentAnswers(t *testing.T) {
	srv, _ := testServer(t)
	_, created := doJSON(t, srv, http.MethodPost, "/sessions", nil)

	allowed := map[int]bool{
		http.StatusOK:                 true, // advanced the session
		http.StatusConflict:           true, // lost the race for the pending question
		http.StatusNotFound:           true, // session finished and was reaped
		http.StatusServiceUnavailable: true, // algorithm busy past the deadline
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	bad := map[int]int{}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				var rec *httptest.ResponseRecorder
				if g%2 == 0 {
					var buf bytes.Buffer
					_ = json.NewEncoder(&buf).Encode(answerPayload{PreferFirst: i%2 == 0})
					req := httptest.NewRequest(http.MethodPost, "/sessions/"+created.ID+"/answer", &buf)
					rec = httptest.NewRecorder()
					srv.ServeHTTP(rec, req)
				} else {
					req := httptest.NewRequest(http.MethodGet, "/sessions/"+created.ID, nil)
					rec = httptest.NewRecorder()
					srv.ServeHTTP(rec, req)
				}
				if !allowed[rec.Code] {
					mu.Lock()
					bad[rec.Code]++
					mu.Unlock()
				}
				if rec.Code == http.StatusNotFound {
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if len(bad) > 0 {
		t.Fatalf("unexpected status codes under concurrency: %v", bad)
	}
}

// TestServerFaultInjectedPanicKeepsServing is the acceptance scenario: a
// panic injected into vertex enumeration mid-session must surface as a JSON
// error on that session, bump server.panics_recovered, and leave the
// process fully able to serve new sessions.
func TestServerFaultInjectedPanicKeepsServing(t *testing.T) {
	srv, _ := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	panicsBefore := obs.Default().Counter("server.panics_recovered").Value()

	st := postJSON(t, ts.URL+"/sessions", "", http.StatusCreated)
	if st.Question == nil {
		t.Fatalf("no opening question: %+v", st)
	}

	// Arm after the session is live so its first question came up clean. The
	// failed clip sends the next vertex read to scratch enumeration, where
	// the panic fires.
	fault.Install(fault.NewPlan(11).Set(fault.PointVertices, fault.Spec{PanicProb: 1}).
		Set(fault.PointIncClip, fault.Spec{ErrProb: 1}))
	defer fault.Install(nil)

	st = postJSON(t, ts.URL+"/sessions/"+st.ID+"/answer", `{"prefer_first":true}`, http.StatusOK)
	if !st.Done {
		t.Fatalf("session should end after injected panic: %+v", st)
	}
	degradedOK := st.Result != nil && st.Result.Degraded
	if st.Error == "" && !degradedOK {
		t.Fatalf("expected error or degraded payload, got %+v", st)
	}
	if got := obs.Default().Counter("server.panics_recovered").Value(); got <= panicsBefore {
		t.Errorf("server.panics_recovered not incremented: %d -> %d", panicsBefore, got)
	}

	// The process is still healthy and can run a whole new session.
	fault.Install(nil)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic: %v %v", resp, err)
	}
	resp.Body.Close()
	st = postJSON(t, ts.URL+"/sessions", "", http.StatusCreated)
	if st.Question == nil && !st.Done {
		t.Fatalf("new session unusable after panic: %+v", st)
	}
	postJSON(t, ts.URL+"/sessions/"+st.ID+"/answer", `{"prefer_first":true}`, http.StatusOK)
}

// TestServerFaultDegradedResult: injected vertex-enumeration errors (not
// panics) flow through the baselines' degradation path and out as a
// Degraded result payload plus a sessions.degraded increment.
func TestServerFaultDegradedResult(t *testing.T) {
	srv, _ := testServer(t)
	degradedBefore := obs.Default().Counter("sessions.degraded").Value()

	_, created := doJSON(t, srv, http.MethodPost, "/sessions", nil)
	fault.Install(fault.NewPlan(12).Set(fault.PointVertices, fault.Spec{ErrProb: 1}).
		Set(fault.PointIncClip, fault.Spec{ErrProb: 1}))
	defer fault.Install(nil)

	rec, st := doJSON(t, srv, http.MethodPost, "/sessions/"+created.ID+"/answer", answerPayload{PreferFirst: true})
	if rec.Code != http.StatusOK {
		t.Fatalf("answer status %d: %s", rec.Code, rec.Body.String())
	}
	if !st.Done || st.Result == nil {
		t.Fatalf("expected a done+result payload, got %+v", st)
	}
	if !st.Result.Degraded || st.Result.DegradedReason == "" {
		t.Fatalf("expected degraded result, got %+v", st.Result)
	}
	if len(st.Result.Point) == 0 {
		t.Fatal("degraded result still needs a best-effort tuple")
	}
	if got := obs.Default().Counter("sessions.degraded").Value(); got <= degradedBefore {
		t.Errorf("sessions.degraded not incremented: %d -> %d", degradedBefore, got)
	}
}

// TestServerFaultAnswerTooLarge: bodies past maxAnswerBytes get 413, and the
// session is unharmed.
func TestServerFaultAnswerTooLarge(t *testing.T) {
	srv, _ := testServer(t)
	_, created := doJSON(t, srv, http.MethodPost, "/sessions", nil)

	huge := fmt.Sprintf(`{"prefer_first":true,"pad":%q}`, strings.Repeat("a", maxAnswerBytes+256))
	req := httptest.NewRequest(http.MethodPost, "/sessions/"+created.ID+"/answer", strings.NewReader(huge))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status %d, want 413", rec.Code)
	}

	rec2, st := doJSON(t, srv, http.MethodGet, "/sessions/"+created.ID, nil)
	if rec2.Code != http.StatusOK || (st.Question == nil && !st.Done) {
		t.Fatalf("session damaged by rejected body: %d %+v", rec2.Code, st)
	}
}

// TestServerFaultContentType: explicit non-JSON content types get 415;
// JSON (with parameters) and header-less requests pass.
func TestServerFaultContentType(t *testing.T) {
	srv, _ := testServer(t)
	_, created := doJSON(t, srv, http.MethodPost, "/sessions", nil)
	path := "/sessions/" + created.ID + "/answer"

	cases := []struct {
		ct   string
		want int
	}{
		{"text/plain", http.StatusUnsupportedMediaType},
		{"application/x-www-form-urlencoded", http.StatusUnsupportedMediaType},
		{"multipart/form-data; boundary=x", http.StatusUnsupportedMediaType},
		{"garbage;;;", http.StatusUnsupportedMediaType},
		{"application/json; charset=utf-8", http.StatusOK},
	}
	for _, c := range cases {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(`{"prefer_first":true}`))
		req.Header.Set("Content-Type", c.ct)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		// The JSON case may also legitimately return 200-done or 409 if the
		// session finished; only the status class for rejects is fixed.
		if c.want == http.StatusUnsupportedMediaType && rec.Code != c.want {
			t.Errorf("content type %q: status %d, want %d", c.ct, rec.Code, c.want)
		}
		if c.want == http.StatusOK && rec.Code == http.StatusUnsupportedMediaType {
			t.Errorf("content type %q wrongly rejected", c.ct)
		}
	}
}

// TestServerFaultAnswerDeadline: when the algorithm goroutine is stalled
// (injected latency) past the configured deadline, the server answers 503
// with Retry-After instead of hanging the connection, and the session
// recovers once the stall clears.
func TestServerFaultAnswerDeadline(t *testing.T) {
	srv, _ := testServerWith(t, WithAnswerDeadline(50*time.Millisecond))
	_, created := doJSON(t, srv, http.MethodPost, "/sessions", nil)

	fault.Install(fault.NewPlan(13).Set(fault.PointVertices, fault.Spec{Latency: 400 * time.Millisecond}).
		Set(fault.PointIncClip, fault.Spec{ErrProb: 1}))
	defer fault.Install(nil)

	rec, _ := doJSON(t, srv, http.MethodPost, "/sessions/"+created.ID+"/answer", answerPayload{PreferFirst: true})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("stalled answer status %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 must carry Retry-After")
	}

	// Stall clears: the client polls and the session comes back.
	fault.Install(nil)
	deadline := time.Now().Add(5 * time.Second)
	for {
		rec, st := doJSON(t, srv, http.MethodGet, "/sessions/"+created.ID, nil)
		if rec.Code == http.StatusOK && (st.Question != nil || st.Done) {
			break
		}
		if rec.Code != http.StatusServiceUnavailable && rec.Code != http.StatusOK {
			t.Fatalf("unexpected status while recovering: %d", rec.Code)
		}
		if time.Now().After(deadline) {
			t.Fatal("session never recovered after stall cleared")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// testServerWith mirrors testServer but forwards extra options.
func testServerWith(t *testing.T, opts ...Option) (*Server, *dataset.Dataset) {
	t.Helper()
	ds := dataset.Anticorrelated(rand.New(rand.NewSource(1)), 500, 3).Skyline()
	srv := New(ds, 0.1, func(int64) core.Algorithm {
		return baselines.NewUHSimplex(baselines.UHConfig{}, rand.New(rand.NewSource(2)))
	}, opts...)
	return srv, ds
}

// postJSON does one POST against a live httptest server and decodes the
// statePayload, asserting the status code.
func postJSON(t *testing.T, url, body string, want int) statePayload {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	resp, err := http.Post(url, "application/json", rd)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != want {
		t.Fatalf("POST %s: status %d, want %d: %s", url, resp.StatusCode, want, raw)
	}
	var st statePayload
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("POST %s: bad JSON: %s", url, raw)
	}
	return st
}
