package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"isrl/internal/obs"
)

// TestRetryAfterParsing pins both RFC 9110 §10.2.3 Retry-After forms:
// delta-seconds and the three admissible HTTP-date layouts, plus every
// degenerate value that must fall back to the backoff schedule.
func TestRetryAfterParsing(t *testing.T) {
	now := time.Date(2025, time.March, 9, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name  string
		value string
		want  time.Duration
	}{
		{"absent", "", 0},
		{"delta seconds", "7", 7 * time.Second},
		{"delta zero", "0", 0},
		{"delta negative", "-3", 0},
		{"imf fixdate", "Sun, 09 Mar 2025 12:00:30 GMT", 30 * time.Second},
		{"rfc850", "Sunday, 09-Mar-25 12:02:00 GMT", 2 * time.Minute},
		{"asctime", "Sun Mar  9 12:00:05 2025", 5 * time.Second},
		{"date in the past", "Sun, 09 Mar 2025 11:59:00 GMT", 0},
		{"date equal to now", "Sun, 09 Mar 2025 12:00:00 GMT", 0},
		{"garbage", "soon", 0},
		{"float seconds", "1.5", 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := http.Header{}
			if c.value != "" {
				h.Set("Retry-After", c.value)
			}
			if got := retryAfterAt(h, now); got != c.want {
				t.Errorf("retryAfterAt(%q) = %v, want %v", c.value, got, c.want)
			}
		})
	}
}

// TestClientFailsOverToSecondEndpoint pins the multi-endpoint contract: a
// dead first endpoint costs exactly one failed attempt before the client
// rotates to the standby and succeeds, counting one failover.
func TestClientFailsOverToSecondEndpoint(t *testing.T) {
	var hits atomic.Int64
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Write([]byte(`{"id":"s1","done":false,"round":1}`))
	}))
	defer good.Close()
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // connection refused from here on

	c := NewMulti([]string{dead.URL, good.URL},
		WithRegistry(obs.NewRegistry()),
		WithJitterSeed(1),
		WithBackoff(time.Millisecond, 5*time.Millisecond),
		WithAttempts(4),
	)
	resp, err := c.do(context.Background(), http.MethodGet, "/sessions/s1", "s1", nil, nil)
	if err != nil {
		t.Fatalf("do: %v", err)
	}
	if resp.status != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.status)
	}
	if hits.Load() != 1 {
		t.Errorf("standby saw %d requests, want 1", hits.Load())
	}
	if c.mFailovers.Value() == 0 {
		t.Error("client.endpoint_failovers never incremented")
	}
}

// TestClientFailsOverOnShedding pins the 503 path: a follower answering 503
// (shedding, not dead — its breaker must NOT trip) pushes traffic to the
// other endpoint, and once a definitive response arrives the client pins
// there instead of bouncing back.
func TestClientFailsOverOnShedding(t *testing.T) {
	var followerHits, primaryHits atomic.Int64
	follower := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		followerHits.Add(1)
		w.Header().Set("Retry-After", "0")
		http.Error(w, `{"error":"follower catching up"}`, http.StatusServiceUnavailable)
	}))
	defer follower.Close()
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		primaryHits.Add(1)
		w.Write([]byte(`{"id":"s1","done":false,"round":1}`))
	}))
	defer primary.Close()

	c := NewMulti([]string{follower.URL, primary.URL},
		WithRegistry(obs.NewRegistry()),
		WithJitterSeed(1),
		WithBackoff(time.Millisecond, 5*time.Millisecond),
		WithAttempts(6),
	)
	for i := 0; i < 3; i++ {
		resp, err := c.do(context.Background(), http.MethodGet, "/sessions/s1", "s1", nil, nil)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if resp.status != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200", i, resp.status)
		}
	}
	if got := followerHits.Load(); got != 1 {
		t.Errorf("shedding endpoint saw %d requests, want 1 (client should pin to the primary)", got)
	}
	if got := primaryHits.Load(); got != 3 {
		t.Errorf("primary saw %d requests, want 3", got)
	}
}

// TestClientSkipsQuarantinedEndpoint pins the breaker/endpoint interplay:
// a host whose breaker is inside its open cooldown is skipped at pick time,
// so a request preferring the dead endpoint goes straight to the standby
// without burning an attempt (and a failover rotation) on the corpse.
func TestClientSkipsQuarantinedEndpoint(t *testing.T) {
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"id":"s1","done":false,"round":1}`))
	}))
	defer good.Close()
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadHost := dead.Listener.Addr().String()
	deadURL := dead.URL
	dead.Close()

	c := NewMulti([]string{deadURL, good.URL},
		WithRegistry(obs.NewRegistry()),
		WithJitterSeed(1),
		WithBackoff(time.Millisecond, 5*time.Millisecond),
		WithAttempts(4),
		WithBreaker(1, time.Minute),
	)
	// One failed attempt opens the dead host's breaker and fails over.
	if _, err := c.do(context.Background(), http.MethodGet, "/sessions/s1", "s1", nil, nil); err != nil {
		t.Fatalf("first request: %v", err)
	}
	if !c.br.quarantined(deadHost) {
		t.Fatal("dead endpoint's breaker never opened")
	}

	// Force preference back onto the quarantined endpoint: the pick must
	// side-step it without a rotation.
	c.pinEndpoint(0)
	fails := c.mFailovers.Value()
	if _, err := c.do(context.Background(), http.MethodGet, "/sessions/s1", "s1", nil, nil); err != nil {
		t.Fatalf("post-trip request: %v", err)
	}
	if got := c.mFailovers.Value(); got != fails {
		t.Errorf("post-trip request rotated endpoints (%d -> %d failovers); want direct pick of the live host", fails, got)
	}
}

// TestClientRetryAfterHoldsOnlyItsEndpoint pins where a Retry-After
// applies: to the next attempt at the endpoint that sent it. A follower
// answering 503 with Retry-After: 2 rotates the call to the primary, which
// is retried on the plain backoff schedule, not after 2 s. When the primary
// then sheds too (with no hint), the call rotates back to the follower and
// must wait out the follower's 2 s first.
func TestClientRetryAfterHoldsOnlyItsEndpoint(t *testing.T) {
	start := time.Now()
	var mu sync.Mutex
	var followerAt, primaryAt []time.Duration
	follower := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		followerAt = append(followerAt, time.Since(start))
		mu.Unlock()
		w.Header().Set("Retry-After", "2")
		http.Error(w, `{"error":"follower catching up"}`, http.StatusServiceUnavailable)
	}))
	defer follower.Close()
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		primaryAt = append(primaryAt, time.Since(start))
		first := len(primaryAt) == 1 && r.URL.Path == "/sessions/shed"
		mu.Unlock()
		if first {
			http.Error(w, `{"error":"draining"}`, http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"id":"s1","done":false,"round":1}`))
	}))
	defer primary.Close()
	newClient := func() *Client {
		return NewMulti([]string{follower.URL, primary.URL},
			WithRegistry(obs.NewRegistry()),
			WithJitterSeed(1),
			WithBackoff(time.Millisecond, 5*time.Millisecond),
			WithAttempts(6),
		)
	}

	// The follower's hint does not delay the rotation to the primary.
	if _, err := newClient().do(context.Background(), http.MethodGet, "/sessions/s1", "s1", nil, nil); err != nil {
		t.Fatalf("do: %v", err)
	}
	mu.Lock()
	if len(followerAt) != 1 || len(primaryAt) != 1 {
		t.Fatalf("follower saw %d requests and primary %d, want 1 each", len(followerAt), len(primaryAt))
	}
	if gap := primaryAt[0] - followerAt[0]; gap > time.Second {
		t.Errorf("primary retried %v after the follower's 503, want at once (the follower's Retry-After held it)", gap)
	}
	followerAt, primaryAt = nil, nil
	start = time.Now()
	mu.Unlock()

	// The hint still holds the follower back.
	if _, err := newClient().do(context.Background(), http.MethodGet, "/sessions/shed", "s1", nil, nil); err != nil {
		t.Fatalf("do: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(followerAt) != 2 || len(primaryAt) != 2 {
		t.Fatalf("follower saw %d requests and primary %d, want 2 each", len(followerAt), len(primaryAt))
	}
	if gap := primaryAt[0] - followerAt[0]; gap > time.Second {
		t.Errorf("primary tried %v after the follower's 503, want at once", gap)
	}
	if gap := followerAt[1] - followerAt[0]; gap < 2*time.Second-50*time.Millisecond {
		t.Errorf("follower retried %v after its Retry-After: 2, want >= 2s", gap)
	}
}
