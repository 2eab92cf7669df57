package isrl

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
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

// replServer is chaosServer with a replication node attached: same dataset,
// factory and session-seed base, so a primary/follower pair and the solo
// baseline all produce byte-identical results for the same answer stream.
func replServer(t *testing.T, j *wal.Log, node server.Replication) *server.Server {
	t.Helper()
	ds := chaosDataset()
	factory := func(seed int64) core.Algorithm {
		return ea.New(ds, 0.1, ea.Config{}, rand.New(rand.NewSource(seed)))
	}
	return server.New(ds, 0.1, factory,
		server.WithJournal(j), server.WithSessionSeed(11), server.WithReplication(node))
}

// failoverRun drives chaosSessions EA sessions through a multi-endpoint
// client, invoking hook before each answer with (session index, answers so
// far) — the kill switch's trigger point. Results come back JSON-marshaled
// in order for byte comparison.
func failoverRun(t *testing.T, bases []string, hook func(session, answer int)) []byte {
	t.Helper()
	c := client.NewMulti(bases,
		client.WithHTTPClient(&http.Client{Transport: &http.Transport{DisableKeepAlives: true}}),
		client.WithRegistry(obs.NewRegistry()),
		client.WithAttempts(15),
		client.WithPerTryTimeout(3*time.Second),
		client.WithBackoff(2*time.Millisecond, 20*time.Millisecond),
		client.WithJitterSeed(3),
		client.WithBreaker(6, 50*time.Millisecond))
	users := [][]float64{
		{0.2, 0.5, 0.3}, {0.7, 0.1, 0.2}, {0.1, 0.1, 0.8}, {0.4, 0.4, 0.2},
		{0.9, 0.05, 0.05}, {0.3, 0.3, 0.4}, {0.05, 0.9, 0.05}, {0.5, 0.25, 0.25},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	var out bytes.Buffer
	for i := 0; i < chaosSessions; i++ {
		truth := core.SimulatedUser{Utility: users[i%len(users)]}
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
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(data)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

// TestChaosFailoverKillPrimary is the acceptance test for hot-standby
// failover: sessions run through a netfault proxy at a primary that
// replicates to a follower; mid-session the primary is killed, the
// follower's watchdog promotes it, and the multi-endpoint client finishes
// every session against the new primary — byte-identical to a fault-free
// solo run. Afterwards the deposed primary must be fenced: its journal
// rejects appends with ErrStaleEpoch and its HTTP surface sheds with a
// stale-epoch 503.
func TestChaosFailoverKillPrimary(t *testing.T) {
	// Baseline: fault-free solo run.
	cleanDir := t.TempDir()
	cleanSrv, cleanJ := chaosServer(t, cleanDir)
	cleanTS := httptest.NewServer(cleanSrv)
	want := failoverRun(t, []string{cleanTS.URL}, nil)
	cleanTS.Close()
	cleanJ.Close()

	// The pair: follower first (the primary dials it), then primary.
	dirA, dirB := t.TempDir(), t.TempDir()
	fLog, _, err := wal.Open(dirB, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fLog.Close()
	fNode, err := repl.NewFollower(fLog, "127.0.0.1:0", repl.Options{
		Heartbeat:     25 * time.Millisecond,
		PromoteAfter:  250 * time.Millisecond,
		PromoteJitter: 50 * time.Millisecond,
		Seed:          9,
	})
	if err != nil {
		t.Fatal(err)
	}
	fSrv := replServer(t, fLog, fNode)
	fNode.OnPromote(func(epoch uint64, states []wal.SessionState) {
		n := fSrv.Recover(states)
		t.Logf("promoted at epoch %d with %d live sessions", epoch, n)
	})
	fNode.Start()
	defer fNode.Close()
	fTS := httptest.NewServer(fSrv)
	defer fTS.Close()

	pLog, _, err := wal.Open(dirA, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pLog.Close()
	pNode := repl.NewPrimary(pLog, fNode.Addr(), repl.Options{
		Heartbeat:     25 * time.Millisecond,
		RedialBackoff: 10 * time.Millisecond,
		Seed:          8,
	})
	pSrv := replServer(t, pLog, pNode)
	pTS := httptest.NewServer(pSrv)
	defer pTS.Close()
	pNode.Start()
	defer pNode.Close()

	// Client traffic reaches the primary through the chaos proxy; the
	// follower endpoint is the standby in the client's rotation.
	tu, err := url.Parse(pTS.URL)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := netfault.ParsePlan("kill=0.15")
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := netfault.New(tu.Host, plan, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// The kill switch: mid-way through the fourth session, wait for the
	// follower to fully catch up, then take the primary down — HTTP and
	// replication link both. The fallback arm guarantees the kill happens
	// even if a session finishes in fewer rounds than expected.
	killed := false
	kill := func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			if r, _ := pNode.Lag(); r == 0 {
				break
			}
			if !time.Now().Before(deadline) {
				t.Fatal("follower never caught up before the kill")
			}
			time.Sleep(2 * time.Millisecond)
		}
		proxy.Close()
		pNode.Close()
		killed = true
	}
	hook := func(session, answer int) {
		if killed {
			return
		}
		if (session == 3 && answer >= 2) || session > 3 {
			kill()
		}
	}
	got := failoverRun(t, []string{"http://" + proxy.Addr(), fTS.URL}, hook)

	if !killed {
		t.Fatal("kill switch never fired; the failover path was not exercised")
	}
	if !bytes.Equal(got, want) {
		t.Errorf("results after failover differ from fault-free run:\nfailover: %s\n   clean: %s", got, want)
	}
	if role := fNode.Role(); role != "primary" {
		t.Errorf("follower role after failover = %q, want primary", role)
	}
	if fLog.Epoch() != 1 {
		t.Errorf("promoted journal epoch = %d, want 1", fLog.Epoch())
	}

	// The revenant: the deposed primary restarts its ship loop, hears about
	// the higher epoch, and fences its own journal.
	revenant := repl.NewPrimary(pLog, fNode.Addr(), repl.Options{
		Heartbeat:     25 * time.Millisecond,
		RedialBackoff: 10 * time.Millisecond,
		Seed:          10,
	})
	revenant.Start()
	defer revenant.Close()
	deadline := time.Now().Add(5 * time.Second)
	for !pLog.Fenced() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if !pLog.Fenced() {
		t.Fatal("deposed primary's journal never fenced")
	}
	if err := pLog.AppendAnswerCtx(context.Background(), "s1", true); !errors.Is(err, wal.ErrStaleEpoch) {
		t.Errorf("deposed primary append: %v, want wal.ErrStaleEpoch", err)
	}
	// And its HTTP surface sheds session traffic with the stale-epoch 503.
	resp, err := http.Post(pTS.URL+"/sessions/s1/answer", "application/json",
		strings.NewReader(`{"prefer_first":true}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("answer POST to deposed primary: status %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), "stale epoch") {
		t.Errorf("deposed primary rejection body %q lacks stale-epoch hint", body)
	}

	// Exactly-once audit of the promoted journal: every session's answer
	// rounds strictly increasing, every create present exactly once —
	// replicated records and post-promotion appends alike.
	recs, err := wal.Records(dirB)
	if err != nil {
		t.Fatal(err)
	}
	creates := 0
	lastRound := map[string]int{}
	for _, r := range recs {
		switch r.Kind {
		case wal.KindCreate:
			creates++
		case wal.KindAnswer:
			if r.Round != lastRound[r.ID]+1 {
				t.Errorf("journaled answer rounds for %s not strictly increasing: %d after %d",
					r.ID, r.Round, lastRound[r.ID])
			}
			lastRound[r.ID] = r.Round
		}
	}
	if creates != chaosSessions {
		t.Errorf("promoted journal holds %d create records, want %d", creates, chaosSessions)
	}
}
