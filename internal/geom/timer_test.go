package geom

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math/rand"
	"net/http/httptest"
	"testing"

	"isrl/internal/obs"
	"isrl/internal/trace"
)

// tracedSpanMS runs fn under a sampled trace and returns the duration of
// every span named name, as /debug/traces renders it.
func tracedSpanMS(t *testing.T, name string, fn func(ctx context.Context)) []float64 {
	t.Helper()
	tracer := trace.New(trace.Options{
		SampleRate: 1,
		Registry:   obs.NewRegistry(),
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	tr, root := tracer.StartTrace("test", trace.TraceID{}, 1)
	fn(trace.ContextWithSpan(context.Background(), root))
	root.End()
	tr.Finish()
	rec := httptest.NewRecorder()
	tracer.HandleTraces(rec, httptest.NewRequest("GET", "/debug/traces", nil), tr.ID().String())
	type node struct {
		Name       string  `json:"name"`
		DurationMS float64 `json:"duration_ms"`
		Children   []*node `json:"children"`
	}
	var doc struct {
		Spans []*node `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("decode trace: %v", err)
	}
	var out []float64
	var walk func(n *node)
	walk = func(n *node) {
		if n.Name == name {
			out = append(out, n.DurationMS)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, n := range doc.Spans {
		walk(n)
	}
	return out
}

// Each kernel histogram and its span are timed by one clock: one call under
// a sampled trace adds exactly one observation to the histogram, and the
// observed milliseconds are exactly the span's duration. On a plain context
// the histogram still counts the call, since untraced runs read it.
func TestKernelHistogramAndSpanShareOneClock(t *testing.T) {
	// Each setup builds a fresh polytope (its own LPs run outside the
	// measured window) and returns the one call to measure.
	kernels := []struct {
		span  string
		h     *obs.Histogram
		setup func(t *testing.T) func(ctx context.Context)
	}{
		{"lp.solve", lpSolveMS, func(t *testing.T) func(context.Context) {
			prob := testPoly(t, 3, 11).innerBallProblem()
			return func(ctx context.Context) { solveLP(ctx, prob) }
		}},
		{"geom.sample", sampleMS, func(t *testing.T) func(context.Context) {
			p := testPoly(t, 3, 12)
			ib, err := p.InnerBallCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			return func(ctx context.Context) {
				if _, err := p.SampleCtx(ctx, rand.New(rand.NewSource(1)), 16, ib); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"geom.vertices", verticesMS, func(t *testing.T) func(context.Context) {
			p := testPoly(t, 3, 13)
			return func(ctx context.Context) {
				if _, err := p.VerticesCtx(ctx); err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
	for _, k := range kernels {
		t.Run(k.span, func(t *testing.T) {
			call := k.setup(t)
			n0, s0 := k.h.Count(), k.h.Sum()
			spans := tracedSpanMS(t, k.span, call)
			if len(spans) != 1 {
				t.Fatalf("%d %s spans, want 1", len(spans), k.span)
			}
			if dn := k.h.Count() - n0; dn != 1 {
				t.Fatalf("histogram count delta %d, want 1", dn)
			}
			if got, want := k.h.Sum(), s0+spans[0]; got != want {
				t.Fatalf("histogram sum %v, want previous sum + span duration %v = %v", got, spans[0], want)
			}

			call = k.setup(t)
			n0 = k.h.Count()
			call(context.Background())
			if dn := k.h.Count() - n0; dn != 1 {
				t.Fatalf("untraced call: histogram count delta %d, want 1", dn)
			}
		})
	}
}
