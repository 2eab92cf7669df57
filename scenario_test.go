package isrl

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"isrl/client"
	"isrl/internal/core"
	"isrl/internal/ea"
	"isrl/internal/netfault"
	"isrl/internal/obs"
	"isrl/internal/repl"
	"isrl/internal/server"
	"isrl/internal/wal"
)

// chaosSessions is how many back-to-back EA sessions each scenario drives.
// One session is only a handful of connections; several keep the proxy
// busy enough that its fault rates are guaranteed to bite.
const chaosSessions = 8

// scenario is one row of TestChaosScenarios: the fixture's shape, the fault
// plan in front of the primary, when the scripted events fire, the row's
// own checks after the run, and the counters its injected faults must move.
type scenario struct {
	name     string
	pair     bool          // primary + follower; otherwise one solo node
	segBytes int64         // WAL segment size (0: the default)
	digest   time.Duration // the primary's anti-entropy digest interval
	plan     string        // netfault plan at the primary's proxy
	// rotAt and killAt are the (session, answer) points from which the rot
	// and the kill fire; the kill also waits for any rot. Nil: never.
	rotAt, killAt *[2]int
	check         func(t *testing.T, c *cluster)
	counters      []string // obs.Default() counters the row's faults must move
}

var scenarios = []scenario{{
	// The exactly-once protocol: 20% of connections die mid-response and 5%
	// are dropped outright, yet the retrying client's results match the
	// fault-free run and the journal holds every round once.
	name: "client-proxy", plan: "drop=0.05,kill=0.20",
	counters: []string{"netfault.truncated", "netfault.dropped"},
	check: func(t *testing.T, c *cluster) {
		c.wantHealth(c.p.url, "ok", "solo", false)
	},
}, {
	// Hot-standby failover: mid-way through the fourth session the primary
	// dies, the follower promotes, and the multi-endpoint client finishes
	// every session there. The deposed primary, restarted, must fence.
	name: "failover", pair: true, plan: "kill=0.15", killAt: &[2]int{3, 2},
	counters: []string{"repl.promotions", "repl.stale_epoch_rejected", "server.stale_epoch_rejected"},
	check: func(t *testing.T, c *cluster) {
		c.revenant()
		if err := c.p.log.AppendAnswerCtx(context.Background(), "s1", true); !errors.Is(err, wal.ErrStaleEpoch) {
			t.Errorf("deposed primary append: %v, want wal.ErrStaleEpoch", err)
		}
		resp, err := http.Post(c.p.url+"/sessions/s1/answer", "application/json",
			strings.NewReader(`{"prefer_first":true}`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "stale epoch") {
			t.Errorf("answer POST to deposed primary: %d %q, want 503 with a stale-epoch hint", resp.StatusCode, body)
		}
		c.wantHealth(c.p.url, "degraded", "primary", true)
		c.wantHealth(c.f.url, "ok", "primary", false)
	},
}, {
	// Self-healing history: with 512-byte segments sealed history builds up
	// mid-run; one byte rots on each node, scrub quarantines both and the
	// digest exchange heals both from the peer. Then the primary dies, and a
	// repair offered at its dead epoch must bounce off the promoted node.
	name: "bit-rot", pair: true, segBytes: 512, digest: 25 * time.Millisecond, plan: "kill=0.15",
	rotAt: &[2]int{2, 2}, killAt: &[2]int{5, 2},
	counters: []string{"wal.scrub.corrupt", "wal.scrub.quarantined", "wal.scrub.repaired",
		"repl.repairs_applied", "repl.handshake_rejected"},
	check: func(t *testing.T, c *cluster) {
		sealed := c.f.log.SealedSegments()
		if len(sealed) == 0 {
			t.Fatal("promoted node has no sealed history")
		}
		victim := sealed[0].Seq
		pristine := flipByte(t, c.f.dir, victim)
		if _, err := c.f.log.Scrub(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
		if q := c.f.log.Quarantined(); len(q) != 1 || q[0] != victim {
			t.Fatalf("quarantine setup = %v, want [%d]", q, victim)
		}
		c.offerStaleRepair(victim, pristine)
		// No peer can close this quarantine, so /healthz can be read inside
		// it: history is damaged, the live tail still commits.
		if q := c.wantHealth(c.f.url, "ok", "primary", false).Journal.Integrity.Quarantined; len(q) != 1 || q[0] != victim {
			t.Fatalf("quarantine after the stale repair offer = %v, want [%d]", q, victim)
		}
		if err := c.f.log.RepairSegment(victim, pristine); err != nil {
			t.Fatalf("legitimate repair after stale offer: %v", err)
		}
		if q := c.wantHealth(c.f.url, "ok", "primary", false).Journal.Integrity.Quarantined; len(q) != 0 {
			t.Errorf("quarantine after the operator's repair = %v, want none", q)
		}
	},
}}

// TestChaosScenarios runs every scenario against the same fault-free
// baseline: results byte-identical to it, the scripted events fired, a
// promoted follower where there was a pair, the exactly-once journal audit
// and each named counter moved.
func TestChaosScenarios(t *testing.T) {
	want := runSessions(t, []string{startNode(t, 0, nil).url}, nil)
	for _, row := range scenarios {
		t.Run(row.name, func(t *testing.T) {
			before := make([]int64, len(row.counters))
			for i, name := range row.counters {
				before[i] = obs.Default().Counter(name).Value()
			}
			c := newCluster(t, row)
			bases := []string{"http://" + c.proxy.Addr()}
			if row.pair {
				bases = append(bases, c.f.url)
			}
			got := runSessions(t, bases, c.script(row))
			if row.rotAt != nil && !c.rotted {
				t.Fatal("bit-rot phase never ran; sealed history never accumulated")
			}
			if row.killAt != nil && !c.killed {
				t.Fatal("kill switch never fired; the failover path was not exercised")
			}
			if !bytes.Equal(got, want) {
				t.Errorf("results differ from the fault-free run:\nchaos: %s\nclean: %s", got, want)
			}
			survivor := c.p
			if row.pair {
				survivor = c.f
				if role := c.f.repl.Role(); role != "primary" {
					t.Errorf("follower role after failover = %q, want primary", role)
				}
				if e := c.f.log.Epoch(); e != 1 {
					t.Errorf("promoted journal epoch = %d, want 1", e)
				}
			}
			row.check(t, c)
			auditJournal(t, survivor.dir)
			for i, name := range row.counters {
				if obs.Default().Counter(name).Value() == before[i] {
					t.Errorf("counter %s did not move: the row's injected fault is invisible in /metrics", name)
				}
			}
		})
	}
}

// chaosNode is one journaled EA server of a scenario.
type chaosNode struct {
	dir  string
	log  *wal.Log
	repl *repl.Node // nil on a solo node
	url  string
}

// startNode opens a journal in a fresh directory and serves it over HTTP
// with a fixed session seed, so every node given the same answers returns
// byte-identical results. attach, if set, builds the node's replication
// role over the journal.
func startNode(t *testing.T, segBytes int64, attach func(*wal.Log) (*repl.Node, error)) *chaosNode {
	t.Helper()
	n := &chaosNode{dir: t.TempDir()}
	var err error
	if n.log, _, err = wal.Open(n.dir, wal.Options{SegmentBytes: segBytes}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.log.Close() })
	ds := chaosDataset()
	opts := []server.Option{server.WithJournal(n.log), server.WithSessionSeed(11)}
	if attach != nil {
		if n.repl, err = attach(n.log); err != nil {
			t.Fatal(err)
		}
		opts = append(opts, server.WithReplication(n.repl))
	}
	srv := server.New(ds, 0.1, func(seed int64) core.Algorithm {
		return ea.New(ds, 0.1, ea.Config{}, rand.New(rand.NewSource(seed)))
	}, opts...)
	if n.repl != nil {
		n.repl.OnPromote(func(epoch uint64, states []wal.SessionState) {
			t.Logf("promoted at epoch %d with %d live sessions", epoch, srv.Recover(states))
		})
		n.repl.Start()
		t.Cleanup(func() { n.repl.Close() })
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	n.url = ts.URL
	return n
}

// primaryOpts are the shipping timings of every primary in the scenarios.
func primaryOpts(seed int64, digest time.Duration) repl.Options {
	return repl.Options{Heartbeat: 25 * time.Millisecond, RedialBackoff: 10 * time.Millisecond,
		DigestEvery: digest, Seed: seed}
}

// cluster is a running scenario: the primary (behind the proxy), the
// follower of a pair, and which scripted events have fired.
type cluster struct {
	t              *testing.T
	p, f           *chaosNode // f is nil on a solo row
	proxy          *netfault.Proxy
	rotted, killed bool
}

func newCluster(t *testing.T, row scenario) *cluster {
	c := &cluster{t: t}
	if row.pair {
		// The follower first, since the primary dials it.
		c.f = startNode(t, row.segBytes, func(l *wal.Log) (*repl.Node, error) {
			return repl.NewFollower(l, "127.0.0.1:0", repl.Options{Heartbeat: 25 * time.Millisecond,
				PromoteAfter: 250 * time.Millisecond, PromoteJitter: 50 * time.Millisecond, Seed: 9})
		})
		c.p = startNode(t, row.segBytes, func(l *wal.Log) (*repl.Node, error) {
			return repl.NewPrimary(l, c.f.repl.Addr(), primaryOpts(8, row.digest)), nil
		})
	} else {
		c.p = startNode(t, row.segBytes, nil)
	}
	plan, err := netfault.ParsePlan(row.plan)
	if err != nil {
		t.Fatal(err)
	}
	if c.proxy, err = netfault.New(strings.TrimPrefix(c.p.url, "http://"), plan, 5); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.proxy.Close() })
	return c
}

// script is the row's answer hook: it fires the rot and the kill once the
// run reaches their points.
func (c *cluster) script(row scenario) func(session, answer int) {
	reached := func(at *[2]int, s, a int) bool {
		return at != nil && (s > at[0] || s == at[0] && a >= at[1])
	}
	return func(s, a int) {
		if !c.rotted && reached(row.rotAt, s, a) {
			c.rotted = c.rot()
		}
		if !c.killed && reached(row.killAt, s, a) && (row.rotAt == nil || c.rotted) {
			c.kill()
		}
	}
}

// kill waits for the follower to catch up fully, then takes the primary
// down: its HTTP path and its replication link.
func (c *cluster) kill() {
	c.waitFor("the follower to catch up before the kill", 5*time.Second, func() bool {
		r, _ := c.p.repl.Lag()
		return r == 0
	})
	c.proxy.Close()
	c.p.repl.Close()
	c.killed = true
}

// rot flips a byte in a different sealed segment on each node, scrubs both
// so the damage is quarantined, and waits for the digest exchange to heal
// both sides byte-identically. It does nothing and reports false while the
// nodes do not yet share two sealed segments.
func (c *cluster) rot() bool {
	pSealed, fSealed := c.p.log.SealedSegments(), c.f.log.SealedSegments()
	if len(pSealed) < 2 || len(fSealed) < 2 || pSealed[0] != fSealed[0] || pSealed[1] != fSealed[1] {
		return false
	}
	victims := []int{pSealed[0].Seq, fSealed[1].Seq}
	for i, n := range []*chaosNode{c.p, c.f} {
		flipByte(c.t, n.dir, victims[i])
		if rep, err := n.log.Scrub(context.Background(), 0); err != nil || rep.Corrupt != 1 {
			c.t.Fatalf("scrub found %d corrupt segments (err %v), want the 1 planted", rep.Corrupt, err)
		}
	}
	c.waitFor("anti-entropy to heal both quarantines", 10*time.Second, func() bool {
		return len(c.p.log.Quarantined()) == 0 && len(c.f.log.Quarantined()) == 0
	})
	for _, seq := range victims {
		a, errA := os.ReadFile(filepath.Join(c.p.dir, wal.SegName(seq)))
		b, errB := os.ReadFile(filepath.Join(c.f.dir, wal.SegName(seq)))
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			c.t.Fatalf("segment %d not byte-identical after repair (%v, %v)", seq, errA, errB)
		}
	}
	c.t.Logf("bit rot healed: segments %v byte-identical again", victims)
	return true
}

// revenant restarts the killed primary's ship loop: it hears of the higher
// epoch and must fence its own journal.
func (c *cluster) revenant() {
	n := repl.NewPrimary(c.p.log, c.f.repl.Addr(), primaryOpts(10, 0))
	n.Start()
	c.t.Cleanup(func() { n.Close() })
	c.waitFor("the deposed primary's journal to fence", 5*time.Second, c.p.log.Fenced)
}

// offerStaleRepair plays the fenced ex-primary offering segment bytes at
// its dead epoch: the hello is denied with the fencing epoch, and a payload
// pushed down a fresh connection without a handshake is dropped unseen.
func (c *cluster) offerStaleRepair(seq int, data []byte) {
	conn := c.dialRepl()
	replWireSend(c.t, conn, replWire{T: "hello", Epoch: 0, SID: 7})
	conn.SetReadDeadline(time.Now().Add(time.Second))
	var m replWire
	payload, err := wal.ReadFrame(conn, 64<<20)
	if err == nil {
		err = json.Unmarshal(payload, &m)
	}
	if err != nil || m.T != "deny" || m.Epoch == 0 {
		c.t.Fatalf("stale hello reply = %+v, %v; want a deny carrying the fencing epoch", m, err)
	}
	rejected := obs.Default().Counter("repl.handshake_rejected")
	before := rejected.Value()
	replWireSend(c.t, c.dialRepl(), replWire{T: "rep", Epoch: 0, Seq: seq, Data: data})
	c.waitFor("the un-greeted repair to be dropped", 5*time.Second, func() bool {
		return rejected.Value() > before
	})
}

func (c *cluster) dialRepl() net.Conn {
	conn, err := net.Dial("tcp", c.f.repl.Addr())
	if err != nil {
		c.t.Fatal(err)
	}
	c.t.Cleanup(func() { conn.Close() })
	return conn
}

// waitFor polls cond until it holds, and fails the test after limit.
func (c *cluster) waitFor(what string, limit time.Duration, cond func() bool) {
	for deadline := time.Now().Add(limit); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			c.t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// health is the part of /healthz the rows assert.
type health struct {
	Status      string
	Journal     struct{ Integrity wal.Integrity }
	Replication struct {
		Role   string
		Fenced bool
	}
}

// wantHealth reads base's /healthz and checks its status, role and fence.
func (c *cluster) wantHealth(base, status, role string, fenced bool) health {
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var h health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		c.t.Fatal(err)
	}
	if h.Status != status || h.Replication.Role != role || h.Replication.Fenced != fenced {
		c.t.Errorf("%s/healthz = %+v, want status %q, role %q, fenced %v", base, h, status, role, fenced)
	}
	return h
}

// flipByte flips the middle byte of segment seq in dir and returns the
// segment's bytes from before the flip.
func flipByte(t *testing.T, dir string, seq int) []byte {
	path := filepath.Join(dir, wal.SegName(seq))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rotted := append([]byte(nil), data...)
	rotted[len(rotted)/2] ^= 0x01
	if err := os.WriteFile(path, rotted, 0o644); err != nil {
		t.Fatal(err)
	}
	return data
}

var chaosUsers = [][]float64{
	{0.2, 0.5, 0.3}, {0.7, 0.1, 0.2}, {0.1, 0.1, 0.8}, {0.4, 0.4, 0.2},
	{0.9, 0.05, 0.05}, {0.3, 0.3, 0.4}, {0.05, 0.9, 0.05}, {0.5, 0.25, 0.25},
}

// runSessions drives chaosSessions full EA sessions, one simulated user
// each, through a resilient client over bases. hook, if set, runs before
// each answer with the session index and the answers given so far. The
// final results come back JSON-marshaled in order, for byte comparison.
func runSessions(t *testing.T, bases []string, hook func(session, answer int)) []byte {
	t.Helper()
	// Keep-alives off: one request per connection, in protocol order, so the
	// proxy's seeded fate sequence is a deterministic schedule, not a race.
	c := client.NewMulti(bases,
		client.WithHTTPClient(&http.Client{Transport: &http.Transport{DisableKeepAlives: true}}),
		client.WithRegistry(obs.NewRegistry()),
		client.WithAttempts(15),
		client.WithPerTryTimeout(3*time.Second),
		client.WithBackoff(2*time.Millisecond, 20*time.Millisecond),
		client.WithJitterSeed(3),
		client.WithBreaker(6, 50*time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	var out bytes.Buffer
	for i := 0; i < chaosSessions; i++ {
		truth := core.SimulatedUser{Utility: chaosUsers[i]}
		answers := 0
		res, err := c.Run(ctx, func(q client.Question) bool {
			if hook != nil {
				hook(i, answers)
			}
			answers++
			return truth.Prefer(q.First, q.Second)
		})
		if err != nil {
			t.Fatalf("session %d through client failed: %v", i, err)
		}
		if err := json.NewEncoder(&out).Encode(res); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// auditJournal is the exactly-once audit: every create journaled once with
// its idempotency key, and each session's answer rounds strictly
// increasing, since a double-applied retry journals a round twice.
func auditJournal(t *testing.T, dir string) {
	recs, err := wal.Records(dir)
	if err != nil {
		t.Fatal(err)
	}
	creates := 0
	lastRound := map[string]int{}
	for _, r := range recs {
		switch r.Kind {
		case wal.KindCreate:
			creates++
			if r.IK == "" {
				t.Errorf("create for %s journaled without its idempotency key", r.ID)
			}
		case wal.KindAnswer:
			if r.Round != lastRound[r.ID]+1 {
				t.Errorf("journaled answer rounds for %s not strictly increasing: %d after %d (a double-applied retry?)",
					r.ID, r.Round, lastRound[r.ID])
			}
			lastRound[r.ID] = r.Round
		}
	}
	if creates != chaosSessions {
		t.Errorf("journal holds %d create records, want %d (idempotent create leaked sessions)", creates, chaosSessions)
	}
}

// replWire is the subset of the replication wire message the stale-repair
// offer speaks: one CRC32 wal frame of JSON, built from the documented
// field names rather than the repl package's unexported type, which also
// pins the wire format itself.
type replWire struct {
	T     string `json:"t"`
	Epoch uint64 `json:"ep,omitempty"`
	SID   uint64 `json:"sid,omitempty"`
	Seq   int    `json:"seq,omitempty"`
	Data  []byte `json:"d,omitempty"`
}

func replWireSend(t *testing.T, conn net.Conn, m replWire) {
	payload, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := wal.Frame(payload, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetWriteDeadline(time.Now().Add(time.Second))
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
}
