// Package client is the resilient Go SDK for the isrl interactive-search
// server. It wraps the JSON/HTTP session protocol (see internal/server) with
// the retry machinery a real deployment needs: per-attempt timeouts under a
// caller-supplied context deadline, capped exponential backoff with jitter
// that honors Retry-After, and a per-host circuit breaker that fails fast
// while a server is down instead of hammering it.
//
// Every call is safe to retry because the server side is exactly-once:
// session creation carries an Idempotency-Key (a retried create lands on the
// existing session), and every answer carries the 1-based round index it
// targets (a duplicate re-delivers the stored next question instead of
// re-applying the preference). The SDK therefore retries POSTs as freely as
// GETs — the property the chaos suite pins down by running full sessions
// through a fault-injecting proxy and asserting byte-identical results.
//
// The package is stdlib-only (plus the repo's own obs metrics and fault
// injection hooks). Typical use:
//
//	c := client.New("http://localhost:8080")
//	res, err := c.Run(ctx, func(q client.Question) bool {
//	    return ask(q.First, q.Second) // true: prefer First
//	})
package client

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	mrand "math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"isrl/internal/fault"
	"isrl/internal/obs"
)

// Defaults for the retry machinery. They favor interactive latency: a
// handful of quick attempts with sub-second backoff, not minutes of
// patience.
const (
	DefaultAttempts        = 5
	DefaultPerTryTimeout   = 10 * time.Second
	DefaultBackoffBase     = 50 * time.Millisecond
	DefaultBackoffMax      = 2 * time.Second
	DefaultBreakerTrips    = 8
	DefaultBreakerCooldown = time.Second
)

// maxResponseBytes bounds how much of a response body the SDK reads; session
// payloads are a few KB, so anything past this is a broken server, not data.
const maxResponseBytes = 1 << 20

// ErrBreakerOpen is wrapped by request errors rejected locally because the
// target host's circuit breaker is open.
var ErrBreakerOpen = errors.New("client: circuit breaker open")

// ErrAttemptsExhausted is wrapped by request errors that ran out of retry
// attempts; errors.Is it to distinguish "gave up" from "server said no".
var ErrAttemptsExhausted = errors.New("client: retry attempts exhausted")

// APIError is a non-retryable server response (a 4xx other than 429).
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: server returned %d: %s", e.Status, e.Message)
}

// ConflictError is a 409 answer rejection: the round index sent does not
// match the server's protocol state. Expected is the round the server wants
// next, so the caller can resynchronize with one Get.
type ConflictError struct {
	Expected int
	Message  string
}

func (e *ConflictError) Error() string {
	return fmt.Sprintf("client: round conflict (server expects round %d): %s", e.Expected, e.Message)
}

// Client is a resilient handle on an isrl deployment — one server, or a
// primary/standby pair (NewMulti). It is safe for concurrent use; all
// configuration happens at construction.
type Client struct {
	eps      []endpoint
	hc       *http.Client
	attempts int
	perTry   time.Duration
	boBase   time.Duration
	boMax    time.Duration
	br       *breaker
	log      *slog.Logger
	reg      *obs.Registry

	// rng feeds backoff jitter only; idempotency keys come from crypto/rand
	// so two clients seeded identically for test determinism can never
	// collide on a key.
	rmu sync.Mutex
	rng *mrand.Rand

	// preferred is the endpoint index new attempts start from; failover
	// rotates it, a definitive response pins it. Guarded by emu.
	emu       sync.Mutex
	preferred int

	mRequests  *obs.Counter
	mAttempts  *obs.Counter
	mRetries   *obs.Counter
	mFailures  *obs.Counter
	mFailovers *obs.Counter
}

// endpoint is one server base URL plus the host label its breaker state and
// logs are keyed by.
type endpoint struct {
	base string
	host string
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient swaps the underlying http.Client (custom transport, proxy,
// test doubles). The SDK applies its own per-attempt timeouts, so the
// injected client's Timeout should usually stay zero.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) {
		if hc != nil {
			c.hc = hc
		}
	}
}

// WithAttempts caps how many times one logical call touches the wire. Values
// below 1 are treated as 1 (no retries).
func WithAttempts(n int) Option {
	return func(c *Client) {
		if n < 1 {
			n = 1
		}
		c.attempts = n
	}
}

// WithPerTryTimeout bounds each individual attempt. The caller's context
// deadline still bounds the whole call; the per-try timeout just makes sure
// one black-holed connection cannot eat the entire budget.
func WithPerTryTimeout(d time.Duration) Option {
	return func(c *Client) { c.perTry = d }
}

// WithBackoff sets the exponential backoff schedule: base doubles per
// attempt and is capped at max, then jittered to [d/2, d). A Retry-After
// from the server acts as a floor on top.
func WithBackoff(base, max time.Duration) Option {
	return func(c *Client) { c.boBase, c.boMax = base, max }
}

// WithJitterSeed makes backoff jitter deterministic — for tests that pin
// retry schedules. Production clients should leave the default
// (time-seeded) source.
func WithJitterSeed(seed int64) Option {
	return func(c *Client) { c.rng = mrand.New(mrand.NewSource(seed)) }
}

// WithBreaker tunes the per-host circuit breaker: the breaker opens after
// trips consecutive failures and probes again after cooldown. trips <= 0
// disables the breaker entirely.
func WithBreaker(trips int, cooldown time.Duration) Option {
	return func(c *Client) { c.br = newBreaker(trips, cooldown) }
}

// WithLogger sets the structured logger; breaker transitions log at Warn,
// per-retry detail at Debug.
func WithLogger(l *slog.Logger) Option {
	return func(c *Client) {
		if l != nil {
			c.log = l
		}
	}
}

// WithRegistry sets the metrics registry (default obs.Default()).
func WithRegistry(r *obs.Registry) Option {
	return func(c *Client) {
		if r != nil {
			c.reg = r
		}
	}
}

// New builds a client for the server at base (e.g. "http://host:8080").
func New(base string, opts ...Option) *Client {
	return NewMulti([]string{base}, opts...)
}

// NewMulti builds a client that fails over across several equivalent
// endpoints — typically [primary, standby]. Attempts start at the
// preferred endpoint (initially the first); a connection error, 5xx or 429
// rotates preference to the next one, and a definitive response pins it, so
// after a failover all traffic converges on the promoted standby. Combined
// with the server's stale-epoch and follower-catching-up 503s this makes a
// primary crash invisible to Run loops: the deposed node sheds, the breaker
// quarantines it, and retries land on the survivor.
func NewMulti(bases []string, opts ...Option) *Client {
	if len(bases) == 0 {
		bases = []string{""}
	}
	c := &Client{
		hc:       &http.Client{},
		attempts: DefaultAttempts,
		perTry:   DefaultPerTryTimeout,
		boBase:   DefaultBackoffBase,
		boMax:    DefaultBackoffMax,
		br:       newBreaker(DefaultBreakerTrips, DefaultBreakerCooldown),
		log:      slog.Default(),
		reg:      obs.Default(),
		rng:      mrand.New(mrand.NewSource(time.Now().UnixNano())),
	}
	for _, base := range bases {
		host := base
		if u, err := url.Parse(base); err == nil && u.Host != "" {
			host = u.Host
		}
		c.eps = append(c.eps, endpoint{base: base, host: host})
	}
	for _, opt := range opts {
		opt(c)
	}
	c.br.log = c.log
	c.br.bind(c.reg)
	c.mRequests = c.reg.Counter("client.requests")
	c.mAttempts = c.reg.Counter("client.attempts")
	c.mRetries = c.reg.Counter("client.retries")
	c.mFailures = c.reg.Counter("client.failures")
	c.mFailovers = c.reg.Counter("client.endpoint_failovers")
	return c
}

// response is one complete, body-read HTTP exchange.
type response struct {
	status int
	header http.Header
	body   []byte
}

// do runs one logical call with the full retry stack. The sid label is the
// session id (or "" before one exists) threaded into logs so breaker events
// are attributable. Retryable outcomes: transport errors, body-read errors,
// 429 and every 5xx. Any other status returns to the caller.
func (c *Client) do(ctx context.Context, method, path, sid string, hdr http.Header, body []byte) (*response, error) {
	c.mRequests.Inc()
	var lastErr error
	// notBefore[i] is the earliest time endpoint i's last Retry-After lets
	// this call try it again; nil until an endpoint sends one. A hint holds
	// back only the endpoint that sent it: after a follower's 503 the call
	// rotates to the primary and retries it on the plain backoff schedule.
	var notBefore []time.Time
	// floor is the backoff floor for the attempt after now: how long the
	// endpoint that attempt will pick still asked to be left alone. With one
	// endpoint it is exactly the last Retry-After, as it always was.
	floor := func(now time.Time) time.Duration {
		if notBefore == nil {
			return 0
		}
		_, next := c.pickEndpoint()
		return max(notBefore[next].Sub(now), 0)
	}
	for attempt := 0; attempt < c.attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if attempt > 0 {
			c.mRetries.Inc()
		}
		ep, idx := c.pickEndpoint()
		if !c.br.allow(ep.host, sid) {
			// Fail-fast locally, but keep the attempt loop going: the
			// breaker counts as a (cheap) failed attempt, and the backoff
			// sleep gives the cooldown a chance to elapse into half-open.
			lastErr = fmt.Errorf("%w (host %s)", ErrBreakerOpen, ep.host)
			if err := c.sleep(ctx, c.backoff(attempt, floor(time.Now()))); err != nil {
				return nil, err
			}
			continue
		}
		resp, retryable, err := c.attempt(ctx, method, ep.base, path, hdr, body)
		c.mAttempts.Inc()
		if err == nil && !retryable {
			c.br.success(ep.host)
			c.pinEndpoint(idx)
			return resp, nil
		}
		if err == nil {
			// Shed response (429/5xx): the server is up and talking, which
			// resets the breaker — but a shedding node (draining, follower
			// catching up, or fenced after a failover) is exactly when the
			// standby should get the next attempt, so rotate as well as
			// back off, honoring its Retry-After as a floor on the next
			// attempt at it.
			c.br.success(ep.host)
			now := time.Now()
			if hint := retryAfterAt(resp.header, now); hint > 0 || notBefore != nil {
				if notBefore == nil {
					notBefore = make([]time.Time, len(c.eps))
				}
				notBefore[idx] = now.Add(hint)
			}
			c.rotateEndpoint(idx, sid, fmt.Sprintf("status %d", resp.status))
			lastErr = fmt.Errorf("client: server returned %d", resp.status)
			if err := c.sleep(ctx, c.backoff(attempt, floor(now))); err != nil {
				return nil, err
			}
			continue
		}
		c.br.failure(ep.host, sid)
		c.rotateEndpoint(idx, sid, "transport error")
		lastErr = err
		c.log.Debug("client attempt failed", "method", method, "path", path, "host", ep.host, "attempt", attempt+1, "err", err)
		if err := c.sleep(ctx, c.backoff(attempt, floor(time.Now()))); err != nil {
			return nil, err
		}
	}
	c.mFailures.Inc()
	return nil, fmt.Errorf("%w after %d attempts: %v", ErrAttemptsExhausted, c.attempts, lastErr)
}

// pickEndpoint returns the endpoint the next attempt should hit: the first
// one at or after the preferred index whose breaker is not in its open
// cooldown. When every endpoint is quarantined it returns the preferred one
// and lets allow() produce the breaker-open outcome.
func (c *Client) pickEndpoint() (endpoint, int) {
	c.emu.Lock()
	start := c.preferred
	c.emu.Unlock()
	n := len(c.eps)
	for i := 0; i < n; i++ {
		idx := (start + i) % n
		if !c.br.quarantined(c.eps[idx].host) {
			return c.eps[idx], idx
		}
	}
	return c.eps[start%n], start % n
}

// pinEndpoint makes idx the preferred endpoint after a definitive response.
func (c *Client) pinEndpoint(idx int) {
	c.emu.Lock()
	c.preferred = idx
	c.emu.Unlock()
}

// rotateEndpoint moves preference off a failing endpoint so the next
// attempt starts at the other one. No-op with a single endpoint.
func (c *Client) rotateEndpoint(idx int, sid, why string) {
	if len(c.eps) < 2 {
		return
	}
	c.emu.Lock()
	rotated := false
	if c.preferred == idx {
		c.preferred = (idx + 1) % len(c.eps)
		rotated = true
	}
	next := c.eps[c.preferred].host
	c.emu.Unlock()
	if rotated {
		c.mFailovers.Inc()
		c.log.Warn("client failing over to next endpoint",
			"from", c.eps[idx].host, "to", next, "session", sid, "reason", why)
	}
}

// attempt performs one wire attempt. It returns (resp, false, nil) on a
// definitive response, (resp, true, nil) on a retryable status, and
// (nil, _, err) on a transport or body-read failure.
func (c *Client) attempt(ctx context.Context, method, base, path string, hdr http.Header, body []byte) (*response, bool, error) {
	// Chaos hook: lets the fault plans that exercise every other subsystem
	// inject latency or transport errors into the SDK itself.
	if err := fault.Hit(fault.PointClientReq); err != nil {
		return nil, true, err
	}
	actx := ctx
	if c.perTry > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, c.perTry)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, base+path, rd)
	if err != nil {
		return nil, false, err
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	res, err := c.hc.Do(req)
	if err != nil {
		return nil, true, err
	}
	defer res.Body.Close()
	data, err := io.ReadAll(io.LimitReader(res.Body, maxResponseBytes))
	if err != nil {
		// Truncated or reset mid-body: the request may have been applied
		// server-side, but the exactly-once protocol makes the retry safe.
		return nil, true, fmt.Errorf("client: read response body: %w", err)
	}
	out := &response{status: res.StatusCode, header: res.Header, body: data}
	retryable := res.StatusCode == http.StatusTooManyRequests || res.StatusCode >= 500
	return out, retryable, nil
}

// backoff computes the jittered sleep before attempt+1: base·2^attempt
// capped at max, jittered to [d/2, d), floored by the server's Retry-After
// hint when present.
func (c *Client) backoff(attempt int, floor time.Duration) time.Duration {
	d := c.boBase << attempt
	if d > c.boMax || d <= 0 {
		d = c.boMax
	}
	c.rmu.Lock()
	d = d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	c.rmu.Unlock()
	if d < floor {
		d = floor
	}
	return d
}

// sleep waits for d or the context, whichever ends first.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryAfterAt parses a Retry-After header, at time now, into how long the
// server asked to be left alone, accepting both RFC 9110 §10.2.3 forms:
// delta-seconds and HTTP-date. Absent, unparseable, negative or
// already-past values all return 0 — "use the backoff schedule".
func retryAfterAt(h http.Header, now time.Time) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	// http.ParseTime tries the three date layouts RFC 9110 admits
	// (IMF-fixdate, RFC 850, ANSI C asctime).
	t, err := http.ParseTime(v)
	if err != nil {
		return 0
	}
	d := t.Sub(now)
	if d < 0 {
		return 0
	}
	return d
}

// newIdemKey mints a 128-bit idempotency key from crypto/rand. Never the
// jitter rng: two test clients built with the same seed must still generate
// distinct keys.
func newIdemKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform is broken; fall back to a
		// time-derived key rather than refusing to create sessions.
		return fmt.Sprintf("t-%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}
