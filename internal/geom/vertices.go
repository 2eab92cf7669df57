package geom

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"isrl/internal/fault"
	"isrl/internal/trace"
	"isrl/internal/vec"
)

// vertexTol is the feasibility slack used when classifying enumerated basic
// solutions as vertices of R.
const vertexTol = 1e-8

// MaxVertexBases caps the number of constraint subsets VerticesCtx will try
// before giving up; it protects against accidental use in high dimension
// with many halfspaces, where exact polyhedra are not meant to be used
// (the paper restricts polyhedron-maintaining algorithms to low d).
const MaxVertexBases = 2_000_000

// VerticesCtx returns the extreme utility vectors of R (the paper's set E).
//
// A vertex of R lies on the hyperplane Σu = 1 and on d−1 further linearly
// independent active constraints drawn from the non-negativity facets
// {uᵢ = 0} and the learned hyperplanes {wₖ·u = 0}. VerticesCtx enumerates
// all (d−1)-subsets of that pool, solves each d×d system, and keeps the
// feasible solutions, deduplicated. Every call enumerates afresh (a session
// reads the list Incremental maintains instead). The enumeration is timed
// into geom.vertices_ms and, when ctx carries an active trace, as a
// "geom.vertices" span carrying the halfspace and vertex counts.
func (p *polytope) VerticesCtx(ctx context.Context) ([][]float64, error) {
	_, t := trace.StartTimer(ctx, "geom.vertices", verticesMS)
	defer t.End()
	vertexEnums.Inc()
	if err := fault.Hit(fault.PointVertices); err != nil {
		return nil, fmt.Errorf("geom: vertices: %w", err)
	}
	d := p.Dim
	// Constraint pool as normals of hyperplanes through the origin.
	pool := make([][]float64, 0, d+len(p.Halfspaces))
	for i := 0; i < d; i++ {
		e := make([]float64, d)
		e[i] = 1
		pool = append(pool, e) // facet uᵢ = 0 has normal eᵢ
	}
	for _, h := range p.Halfspaces {
		if vec.Norm(h.Normal) == 0 {
			continue
		}
		pool = append(pool, h.Normal)
	}
	if c := binom(len(pool), d-1); c > MaxVertexBases {
		return nil, fmt.Errorf("geom: vertex enumeration needs %d bases (max %d); reduce halfspaces or dimension", c, MaxVertexBases)
	}

	if d == 1 {
		return nil, fmt.Errorf("geom: dimension 1 unsupported")
	}

	out := p.enumerateVertices(pool)
	// Canonical order keeps downstream behaviour deterministic.
	sort.Slice(out, func(i, j int) bool { return lexLess(out[i], out[j]) })
	if sp := t.Span(); sp != nil {
		sp.SetInt("halfspaces", int64(len(p.Halfspaces)))
		sp.SetInt("vertices", int64(len(out)))
	}
	return out, nil
}

// enumScratch is enumeration scratch — the d×d system, its solver
// workspace, the subset index vector and the dedup key buffer — pooled so
// the hot enumeration allocates only for vertices that actually make it
// into the output.
type enumScratch struct {
	A   *vec.Mat
	b   []float64
	x   []float64
	idx []int
	key []byte
	lin vec.LinSolver
}

var enumPool = sync.Pool{New: func() any { return new(enumScratch) }}

// enumerateVertices solves the d×d system of every (d−1)-subset of pool in
// lexicographic order and returns the feasible solutions, deduplicated by
// quantized key with the first-enumerated representative kept.
func (p *polytope) enumerateVertices(pool [][]float64) [][]float64 {
	d := p.Dim
	sc := enumPool.Get().(*enumScratch)
	defer enumPool.Put(sc)
	if sc.A == nil || cap(sc.A.Data) < d*d {
		sc.A = vec.NewMat(d, d)
		sc.b = make([]float64, d)
		sc.x = make([]float64, d)
		sc.idx = make([]int, d)
	}
	A := sc.A
	A.Rows, A.Cols = d, d
	A.Data = A.Data[:d*d]
	b, idx := sc.b[:d], sc.idx[:d-1]
	vec.Fill(b, 0)
	b[0] = 1
	var out [][]float64
	seen := make(map[string]bool)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == d-1 {
			// System: Σu = 1 plus the chosen active constraints = 0.
			for j := 0; j < d; j++ {
				A.Set(0, j, 1)
			}
			for r, ci := range idx {
				copy(A.Row(r+1), pool[ci])
			}
			u, ok := sc.lin.Solve(sc.x[:d], A, b, 1e-10)
			if !ok || !p.feasibleVertex(u) {
				return
			}
			sc.key = quantKeyAppend(sc.key[:0], u)
			// string([]byte) map index does not allocate; only a genuinely
			// new vertex pays for its key string and its copy.
			if !seen[string(sc.key)] {
				seen[string(sc.key)] = true
				out = append(out, vec.Clone(u))
			}
			return
		}
		for i := start; i <= len(pool)-(d-1-k); i++ {
			idx[k] = i
			rec(i+1, k+1)
		}
	}
	rec(0, 0)
	return out
}

func (p *polytope) feasibleVertex(u []float64) bool {
	var s float64
	for _, ui := range u {
		if ui < -vertexTol {
			return false
		}
		s += ui
	}
	if math.Abs(s-1) > 1e-7 {
		return false
	}
	for _, h := range p.Halfspaces {
		if vec.Dot(h.Normal, u) < -vertexTol*(1+vec.Norm(h.Normal)) {
			return false
		}
	}
	return vec.AllFinite(u)
}

func quantKey(u []float64) string {
	return string(quantKeyAppend(make([]byte, 0, len(u)*8), u))
}

// quantKeyAppend appends the quantized key bytes of u to buf, letting hot
// loops reuse one buffer across candidates.
func quantKeyAppend(buf []byte, u []float64) []byte {
	for _, ui := range u {
		q := int64(math.Round(ui * 1e7))
		if q == 0 {
			q = 0 // normalize −0
		}
		for s := 0; s < 64; s += 8 {
			buf = append(buf, byte(q>>s))
		}
	}
	return buf
}

func lexLess(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func binom(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1
	for i := 1; i <= k; i++ {
		c = c * (n - k + i) / i
		if c > MaxVertexBases {
			return c
		}
	}
	return c
}
