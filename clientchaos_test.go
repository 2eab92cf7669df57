package isrl

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"isrl/client"
	"isrl/internal/core"
	"isrl/internal/ea"
	"isrl/internal/netfault"
	"isrl/internal/obs"
	"isrl/internal/server"
	"isrl/internal/wal"
)

// chaosServer builds a journaled server over an EA factory with fixed seeds,
// so two instances given the same answer sequence produce byte-identical
// results.
func chaosServer(t *testing.T, dir string) (*server.Server, *wal.Log) {
	t.Helper()
	ds := chaosDataset()
	j, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	factory := func(seed int64) core.Algorithm {
		return ea.New(ds, 0.1, ea.Config{}, rand.New(rand.NewSource(seed)))
	}
	return server.New(ds, 0.1, factory,
		server.WithJournal(j), server.WithSessionSeed(11)), j
}

// chaosSessions is how many back-to-back EA sessions each run drives. One
// session is only a handful of connections; several keep the proxy busy
// enough that a 25% fault rate is guaranteed to bite.
const chaosSessions = 8

// chaosRun drives chaosSessions full EA sessions through the resilient
// client and returns their final results, JSON-marshaled in order for byte
// comparison. Different simulated users per session exercise distinct
// question paths.
func chaosRun(t *testing.T, base string, hc *http.Client) []byte {
	t.Helper()
	c := client.New(base,
		client.WithHTTPClient(hc),
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
		res, err := c.Run(ctx, func(q client.Question) bool {
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

// TestChaosClientProxyExactlyOnce is the acceptance test for the
// exactly-once protocol: a seeded netfault plan kills 20% of connections
// mid-response (plus 5% dropped outright), and the retrying client must
// still deliver a final result byte-identical to a fault-free run — with
// zero double-applied rounds in the WAL.
func TestChaosClientProxyExactlyOnce(t *testing.T) {
	// Baseline: fault-free run straight at the server.
	cleanDir := t.TempDir()
	cleanSrv, cleanJ := chaosServer(t, cleanDir)
	cleanTS := httptest.NewServer(cleanSrv)
	want := chaosRun(t, cleanTS.URL, &http.Client{Transport: &http.Transport{DisableKeepAlives: true}})
	cleanTS.Close()
	cleanJ.Close()

	// Chaos: same server configuration behind the fault proxy.
	chaosDir := t.TempDir()
	chaosSrv, chaosJ := chaosServer(t, chaosDir)
	chaosTS := httptest.NewServer(chaosSrv)
	defer chaosTS.Close()
	tu, err := url.Parse(chaosTS.URL)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := netfault.ParsePlan("drop=0.05,kill=0.20")
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := netfault.New(tu.Host, plan, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// Keep-alives off: one request per connection, in protocol order, so the
	// seeded fate sequence is a deterministic schedule, not a race.
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	got := chaosRun(t, "http://"+proxy.Addr(), hc)

	if !bytes.Equal(got, want) {
		t.Errorf("result under chaos differs from fault-free run:\n chaos: %s\n clean: %s", got, want)
	}
	injected := 0
	for _, f := range proxy.Fates() {
		if f != 0 { // fatePass
			injected++
		}
	}
	if injected == 0 {
		t.Fatalf("proxy injected no faults across %d connections; the chaos plan never armed", len(proxy.Fates()))
	}
	t.Logf("proxy: %d connections, %d faulted", len(proxy.Fates()), injected)

	// The exactly-once audit: raw journaled answer rounds for the session
	// must be strictly increasing with no duplicates — a double-applied
	// retry would journal the same round twice.
	chaosJ.Close()
	recs, err := wal.Records(chaosDir)
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
