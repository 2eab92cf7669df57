package trace

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"isrl/internal/obs"
)

// quietTracer builds a tracer with an isolated registry and a discarded
// logger so tests neither pollute the default registry nor spam output.
func quietTracer(t *testing.T, opts Options) *Tracer {
	t.Helper()
	opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	opts.Registry = obs.NewRegistry()
	if opts.SampleRate == 0 {
		opts.SampleRate = 1
	}
	return New(opts)
}

func TestTraceparentRoundTrip(t *testing.T) {
	var tid TraceID
	var sid SpanID
	copy(tid[:], []byte("0123456789abcdef"))
	copy(sid[:], []byte("zyxwvuts"))
	for _, sampled := range []bool{true, false} {
		h := FormatTraceparent(tid, sid, sampled)
		if len(h) != 55 {
			t.Fatalf("traceparent %q has length %d, want 55", h, len(h))
		}
		gtid, gsid, gsampled, ok := ParseTraceparent(h)
		if !ok {
			t.Fatalf("ParseTraceparent(%q) rejected its own output", h)
		}
		if gtid != tid || gsid != sid || gsampled != sampled {
			t.Fatalf("round trip %q = (%s, %s, %v), want (%s, %s, %v)",
				h, gtid, gsid, gsampled, tid, sid, sampled)
		}
	}
}

func TestParseTraceparentMalformed(t *testing.T) {
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	if _, _, _, ok := ParseTraceparent(valid); !ok {
		t.Fatalf("sanity: %q should parse", valid)
	}
	// A future version may carry extra dash-delimited fields.
	if _, _, sampled, ok := ParseTraceparent("cc" + valid[2:] + "-extra"); !ok || !sampled {
		t.Fatalf("future-version traceparent with suffix should parse as sampled")
	}
	cases := map[string]string{
		"empty":               "",
		"truncated":           valid[:54],
		"bad separator":       strings.Replace(valid, "-", "_", 1),
		"version ff":          "ff" + valid[2:],
		"version 00 suffix":   valid + "-extra",
		"future no dash":      "cc" + valid[2:] + "junk",
		"zero trace id":       "00-00000000000000000000000000000000-b7ad6b7169203331-01",
		"zero span id":        "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",
		"non-hex trace id":    "00-0af7651916cd43dd8448eb211c80319g-b7ad6b7169203331-01",
		"non-hex span id":     "00-0af7651916cd43dd8448eb211c80319c-b7ad6b716920333g-01",
		"non-hex flags":       valid[:53] + "zz",
		"uppercase separator": strings.ToUpper(valid),
	}
	for name, h := range cases {
		if _, _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("%s: ParseTraceparent(%q) accepted a malformed header", name, h)
		}
	}
}

func TestParseTraceIDRejects(t *testing.T) {
	for _, s := range []string{"", "abc", strings.Repeat("0", 32), strings.Repeat("g", 32)} {
		if _, ok := ParseTraceID(s); ok {
			t.Errorf("ParseTraceID(%q) accepted an invalid ID", s)
		}
	}
	id, ok := ParseTraceID("0af7651916cd43dd8448eb211c80319c")
	if !ok || id.String() != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("ParseTraceID round trip failed: %v %v", id, ok)
	}
}

func TestSampledDeterministic(t *testing.T) {
	if (*Tracer)(nil).Sampled(7) {
		t.Fatal("nil tracer must never sample")
	}
	off := quietTracer(t, Options{SampleRate: -1})
	on := quietTracer(t, Options{SampleRate: 1})
	half := quietTracer(t, Options{SampleRate: 0.5})
	hits := 0
	for seed := int64(0); seed < 1000; seed++ {
		if off.Sampled(seed) {
			t.Fatalf("rate 0 sampled seed %d", seed)
		}
		if !on.Sampled(seed) {
			t.Fatalf("rate 1 skipped seed %d", seed)
		}
		first := half.Sampled(seed)
		if second := half.Sampled(seed); second != first {
			t.Fatalf("seed %d drew %v then %v: sampling is not deterministic", seed, first, second)
		}
		if first {
			hits++
		}
	}
	// The draw is a hash, not exact stratification; a wide band suffices.
	if hits < 350 || hits > 650 {
		t.Fatalf("rate 0.5 sampled %d/1000 seeds, want roughly half", hits)
	}
}

func TestStartTraceDeterministicIDs(t *testing.T) {
	a := quietTracer(t, Options{})
	b := quietTracer(t, Options{})
	ta, _ := a.StartTrace("session", TraceID{}, 42)
	tb, _ := b.StartTrace("session", TraceID{}, 42)
	if ta.ID().IsZero() || ta.ID() != tb.ID() {
		t.Fatalf("same seed produced trace IDs %s and %s, want equal nonzero", ta.ID(), tb.ID())
	}
	tc, _ := a.StartTrace("session", TraceID{}, 43)
	if tc.ID() == ta.ID() {
		t.Fatalf("different seeds produced the same trace ID %s", ta.ID())
	}
	var inbound TraceID
	inbound[0] = 0xab
	td, _ := a.StartTrace("session", inbound, 42)
	if td.ID() != inbound {
		t.Fatalf("inbound trace ID not adopted: got %s want %s", td.ID(), inbound)
	}
}

func TestDisabledPathNoAllocs(t *testing.T) {
	ctx := context.Background()
	h := obs.NewHistogram(obs.MicroBuckets())
	allocs := testing.AllocsPerRun(1000, func() {
		ctx2, sp := Start(ctx, "noop")
		if ctx2 != ctx || sp != nil {
			t.Fatal("Start on a plain context must return it unchanged with a nil span")
		}
		leaf := StartLeaf(ctx, "noop")
		leaf.SetAttr("k", "v")
		leaf.SetInt("n", 1)
		leaf.SetBool("b", true)
		leaf.StartChild("child").End()
		leaf.End()
		ctx3, tm := StartTimer(ctx, "noop", h)
		if ctx3 != ctx || tm.Span() != nil {
			t.Fatal("StartTimer on a plain context must return it unchanged with no span")
		}
		tm.Span().SetInt("n", 1)
		tm.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing path costs %.1f allocs/op, want 0", allocs)
	}
	if h.Count() == 0 {
		t.Fatal("an unsampled timer must still observe its histogram")
	}
}

func TestTimerSpanAndHistogramShareOneClock(t *testing.T) {
	tr8 := quietTracer(t, Options{})
	tr, root := tr8.StartTrace("session", TraceID{}, 1)
	h := obs.NewHistogram(obs.MicroBuckets())
	ctx, tm := StartTimer(ContextWithSpan(context.Background(), root), "geom.sample", h)
	if SpanFromContext(ctx) != tm.Span() || tm.Span() == nil {
		t.Fatal("StartTimer must return a context carrying its span")
	}
	inner := StartLeaf(ctx, "lp.solve")
	time.Sleep(time.Millisecond)
	inner.End()
	tm.End()
	tm.Span().End() // a later End must not move the duration
	root.End()
	tr.Finish()
	sp := tm.Span()
	if inner.parent != sp.id {
		t.Fatal("a span started from the timer's context must nest beneath it")
	}
	if h.Count() != 1 || h.Sum() != float64(sp.dur)/float64(time.Millisecond) {
		t.Fatalf("histogram count %d sum %v, span %v: want one observation of exactly the span's duration",
			h.Count(), h.Sum(), sp.dur)
	}
}

func TestSpanTreeStructure(t *testing.T) {
	tr8 := quietTracer(t, Options{BufferSize: 4})
	tr, root := tr8.StartTrace("session", TraceID{}, 1)
	ctx := ContextWithSpan(context.Background(), root)
	if got := SpanFromContext(ctx); got != root {
		t.Fatalf("SpanFromContext = %v, want root", got)
	}

	rctx, round := Start(ctx, "session.round")
	round.SetInt("round", 1)
	leaf := StartLeaf(rctx, "lp.solve")
	leaf.SetAttr("status", "optimal")
	leaf.End()
	round.End()
	http := root.StartChild("http.answer")
	http.End()
	root.End()
	tr.Finish()

	// Finish again must be a no-op, and a finished trace accepts no spans.
	tr.Finish()
	if sp := root.StartChild("late"); sp != nil {
		t.Fatal("finished trace handed out a new span")
	}

	roots := tr.tree()
	if len(roots) != 1 || roots[0].Name != "session" {
		t.Fatalf("tree roots = %+v, want single session root", roots)
	}
	kids := roots[0].Children
	if len(kids) != 2 || kids[0].Name != "session.round" || kids[1].Name != "http.answer" {
		t.Fatalf("root children = %+v, want [session.round http.answer]", kids)
	}
	if kids[0].Attrs["round"] != "1" {
		t.Fatalf("round attrs = %v, want round=1", kids[0].Attrs)
	}
	if len(kids[0].Children) != 1 || kids[0].Children[0].Name != "lp.solve" {
		t.Fatalf("round children = %+v, want [lp.solve]", kids[0].Children)
	}
	if kids[0].Children[0].Attrs["status"] != "optimal" {
		t.Fatalf("lp.solve attrs = %v", kids[0].Children[0].Attrs)
	}
}

func TestSpanCapDropsAndCounts(t *testing.T) {
	tc := quietTracer(t, Options{MaxSpans: 3})
	tr, root := tc.StartTrace("session", TraceID{}, 1)
	a := root.StartChild("a")
	b := root.StartChild("b")
	if a == nil || b == nil {
		t.Fatal("spans under the cap must be granted")
	}
	if c := root.StartChild("c"); c != nil {
		t.Fatal("span past MaxSpans must be dropped")
	}
	// Children of a dropped span drop silently too (nil receiver).
	tr.Finish()
	sum := tr.summary()
	if sum.Spans != 3 || sum.DroppedSpans != 1 {
		t.Fatalf("summary = %+v, want 3 spans, 1 dropped", sum)
	}
	if got := tc.spansDropped.Value(); got != 1 {
		t.Fatalf("trace.spans_dropped = %d, want 1", got)
	}
}

func TestOrphanSpansSurfaceAsRoots(t *testing.T) {
	tc := quietTracer(t, Options{})
	tr, root := tc.StartTrace("session", TraceID{}, 1)
	// Fabricate a span whose parent ID is unknown (as after a parent drop).
	orphan := tr.newSpan("orphan", SpanID{1, 2, 3, 4, 5, 6, 7, 8})
	orphan.End()
	root.End()
	tr.Finish()
	roots := tr.tree()
	if len(roots) != 2 {
		t.Fatalf("tree has %d roots, want 2 (root + orphan)", len(roots))
	}
}

func TestRingEvictionAndSlowReservoir(t *testing.T) {
	tc := quietTracer(t, Options{BufferSize: 2, SlowPerName: 2, SlowThreshold: time.Millisecond})
	var ids []TraceID
	for i := 0; i < 5; i++ {
		tr, root := tc.StartTrace("session", TraceID{}, int64(i))
		// Backdate the start so durations ascend deterministically without
		// sleeping: trace i ran for roughly (i+1)×10ms.
		tr.start = time.Now().Add(-time.Duration(i+1) * 10 * time.Millisecond)
		root.End()
		tr.Finish()
		ids = append(ids, tr.ID())
	}
	if got := tc.evicted.Value(); got != 3 {
		t.Fatalf("trace.traces_evicted = %d, want 3", got)
	}
	if got := tc.finishedC.Value(); got != 5 {
		t.Fatalf("trace.traces_finished = %d, want 5", got)
	}
	if got := tc.slowTraces.Value(); got != 5 {
		t.Fatalf("trace.slow_traces = %d, want 5 (all exceed 1ms)", got)
	}
	// Ring holds the last two; the reservoir keeps the two slowest (3, 4),
	// so trace 3 stays findable after eviction while trace 0 is gone.
	if tc.find(ids[4].String()) == nil || tc.find(ids[3].String()) == nil {
		t.Fatal("recent traces must be findable")
	}
	if tc.find(ids[0].String()) != nil {
		t.Fatal("trace 0 should be evicted from both ring and reservoir")
	}
	res := tc.slowByName["session"]
	if len(res) != 2 || res[0].dur < res[1].dur {
		t.Fatalf("slow reservoir misordered or missized: %d entries", len(res))
	}
}

func TestConcurrentSpanAppends(t *testing.T) {
	tc := quietTracer(t, Options{MaxSpans: 4096})
	tr, root := tc.StartTrace("session", TraceID{}, 9)
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := ContextWithSpan(context.Background(), root)
			for i := 0; i < perWorker; i++ {
				rctx, sp := Start(ctx, "session.round")
				sp.SetInt("worker", int64(w))
				leaf := StartLeaf(rctx, "lp.solve")
				leaf.SetBool("ok", true)
				leaf.End()
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	root.End()
	tr.Finish()
	sum := tr.summary()
	want := 1 + workers*perWorker*2
	if sum.Spans != want || sum.DroppedSpans != 0 {
		t.Fatalf("summary = %+v, want %d spans and no drops", sum, want)
	}
	roots := tr.tree()
	if len(roots) != 1 {
		t.Fatalf("tree has %d roots, want 1", len(roots))
	}
	if got := len(roots[0].Children); got != workers*perWorker {
		t.Fatalf("root has %d children, want %d", got, workers*perWorker)
	}
	seen := make(map[string]bool, want)
	var walk func(n *spanNode)
	walk = func(n *spanNode) {
		if seen[n.ID] {
			t.Fatalf("span %s appears twice in the tree", n.ID)
		}
		seen[n.ID] = true
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(roots[0])
	if len(seen) != want {
		t.Fatalf("tree holds %d unique spans, want %d", len(seen), want)
	}
}

func TestHandleTraces(t *testing.T) {
	tc := quietTracer(t, Options{})
	tr, root := tc.StartTrace("session", TraceID{}, 5)
	child := root.StartChild("session.round")
	child.SetInt("round", 1)
	child.End()
	root.End()
	tr.Finish()
	id := tr.ID().String()

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("GET", path, nil)
		suffix := strings.TrimPrefix(req.URL.Path, "/debug/traces")
		suffix = strings.TrimPrefix(suffix, "/")
		tc.HandleTraces(rec, req, suffix)
		return rec
	}

	rec := get("/debug/traces")
	if rec.Code != 200 || !strings.Contains(rec.Header().Get("Content-Type"), "application/json") {
		t.Fatalf("list: code=%d content-type=%q", rec.Code, rec.Header().Get("Content-Type"))
	}
	var list struct {
		Traces []struct {
			ID    string `json:"id"`
			Name  string `json:"name"`
			Spans int    `json:"spans"`
		} `json:"traces"`
		Slowest map[string][]struct {
			ID string `json:"id"`
		} `json:"slowest"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatalf("list: bad JSON: %v", err)
	}
	if len(list.Traces) != 1 || list.Traces[0].ID != id || list.Traces[0].Spans != 2 {
		t.Fatalf("list = %+v, want the finished trace with 2 spans", list.Traces)
	}
	if len(list.Slowest["session"]) != 1 {
		t.Fatalf("slowest = %+v, want one session entry", list.Slowest)
	}

	rec = get("/debug/traces/" + id)
	var single struct {
		Trace struct {
			ID string `json:"id"`
		} `json:"trace"`
		Spans []struct {
			Name     string `json:"name"`
			Children []struct {
				Name  string            `json:"name"`
				Attrs map[string]string `json:"attrs"`
			} `json:"children"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &single); err != nil {
		t.Fatalf("single: bad JSON: %v", err)
	}
	if single.Trace.ID != id || len(single.Spans) != 1 || single.Spans[0].Name != "session" {
		t.Fatalf("single trace = %+v", single)
	}
	if len(single.Spans[0].Children) != 1 || single.Spans[0].Children[0].Attrs["round"] != "1" {
		t.Fatalf("single trace children = %+v", single.Spans[0].Children)
	}

	rec = get("/debug/traces/" + id + "?format=text")
	body := rec.Body.String()
	if !strings.Contains(body, "session.round") || !strings.Contains(body, "round=1") {
		t.Fatalf("text view missing span line: %q", body)
	}

	rec = get("/debug/traces/" + strings.Repeat("e", 32))
	if rec.Code != 404 || !strings.Contains(rec.Body.String(), "no completed trace") {
		t.Fatalf("unknown trace: code=%d body=%q", rec.Code, rec.Body.String())
	}
}

func TestNilReceiversAreSafe(t *testing.T) {
	var tr *Trace
	var sp *Span
	tr.Finish()
	if !tr.ID().IsZero() {
		t.Fatal("nil trace ID should be zero")
	}
	sp.SetAttr("k", "v")
	sp.SetInt("n", 1)
	sp.SetBool("b", true)
	sp.End()
	if !sp.ID().IsZero() {
		t.Fatal("nil span ID should be zero")
	}
	if sp.StartChild("c") != nil {
		t.Fatal("nil span StartChild should be nil")
	}
	if tr2, root := (*Tracer)(nil).StartTrace("x", TraceID{}, 1); tr2 != nil || root != nil {
		t.Fatal("nil tracer StartTrace should return nils")
	}
	if ctx := ContextWithSpan(context.Background(), nil); SpanFromContext(ctx) != nil {
		t.Fatal("nil span must not be stored in the context")
	}
}

func BenchmarkDisabledSpan(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := StartLeaf(ctx, "bench.noop")
		sp.SetInt("n", int64(i))
		sp.End()
	}
}
