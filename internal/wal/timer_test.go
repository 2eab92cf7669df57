package wal

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http/httptest"
	"testing"

	"isrl/internal/obs"
	"isrl/internal/trace"
)

// An fsync is timed by one clock: one append under a sampled trace gives
// one "wal.fsync" span and one wal.fsync_ms observation of exactly the
// span's duration. Untraced, the histogram still counts the fsync.
func TestFsyncHistogramAndSpanShareOneClock(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	mustCreate(t, l, "s1", 1)

	tracer := trace.New(trace.Options{
		SampleRate: 1,
		Registry:   obs.NewRegistry(),
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	tr, root := tracer.StartTrace("test", trace.TraceID{}, 1)
	n0, s0 := mFsyncMS.Count(), mFsyncMS.Sum()
	if err := l.AppendAnswerCtx(trace.ContextWithSpan(context.Background(), root), "s1", true); err != nil {
		t.Fatalf("AppendAnswer: %v", err)
	}
	n1, s1 := mFsyncMS.Count(), mFsyncMS.Sum()
	root.End()
	tr.Finish()

	rec := httptest.NewRecorder()
	tracer.HandleTraces(rec, httptest.NewRequest("GET", "/debug/traces", nil), tr.ID().String())
	var doc struct {
		Spans []struct {
			Children []struct {
				Name       string  `json:"name"`
				DurationMS float64 `json:"duration_ms"`
			} `json:"children"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("decode trace: %v", err)
	}
	var fsyncs []float64
	for _, root := range doc.Spans {
		for _, c := range root.Children {
			if c.Name == "wal.fsync" {
				fsyncs = append(fsyncs, c.DurationMS)
			}
		}
	}
	if len(fsyncs) != 1 || n1-n0 != 1 {
		t.Fatalf("one append gave %d wal.fsync spans and %d wal.fsync_ms observations, want 1 and 1", len(fsyncs), n1-n0)
	}
	if s1 != s0+fsyncs[0] {
		t.Fatalf("wal.fsync_ms sum %v, want previous sum + span duration %v = %v", s1, fsyncs[0], s0+fsyncs[0])
	}

	n0 = mFsyncMS.Count()
	if err := l.AppendAnswerCtx(context.Background(), "s1", false); err != nil {
		t.Fatalf("AppendAnswer: %v", err)
	}
	if dn := mFsyncMS.Count() - n0; dn != 1 {
		t.Fatalf("untraced append: wal.fsync_ms count delta %d, want 1", dn)
	}
}
