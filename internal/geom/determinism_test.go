package geom

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// testPoly builds a d-dimensional utility range narrowed by a few random
// preference halfspaces, mirroring mid-interaction state.
func testPoly(t *testing.T, d int, seed int64) *polytope {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := newPolytope(d)
	for k := 0; k < d+2; k++ {
		pi := make([]float64, d)
		pj := make([]float64, d)
		for i := 0; i < d; i++ {
			pi[i] = rng.Float64()
			pj[i] = rng.Float64()
		}
		h := NewHalfspace(pi, pj)
		q := p.Clone()
		q.Add(h)
		if !q.IsEmpty() {
			p.Add(h)
		}
	}
	if p.IsEmpty() {
		t.Fatal("test polytope is empty")
	}
	return p
}

// scratchSample draws n points from p with every chain started at p's
// scratch inner ball.
func scratchSample(t testing.TB, p *polytope, rng *rand.Rand, n int) [][]float64 {
	t.Helper()
	ctx := context.Background()
	ib, err := p.InnerBallCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := p.SampleCtx(ctx, rng, n, ib)
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

// sampleHash is FNV-1a over the IEEE-754 bits of every sampled coordinate.
func sampleHash(pts [][]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range pts {
		for _, v := range p {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// NewRand's draws are pinned: served sessions and the sampler's chains draw
// from it, so a change to its seeding or its output changes every session's
// questions and must come with a new core.DrawVersion.
func TestNewRandGolden(t *testing.T) {
	want := map[int64][3]int64{
		0:       {6396883617853464008, 7746815404870163736, 2905227621171934003},
		1:       {6327163162935937956, 6607791070604395065, 53834897026223804},
		-1:      {3610355676713190413, 2682109513741822533, 9205433851532965472},
		1 << 40: {4121361515241186679, 8383281840918999865, 6785389650214293296},
	}
	for seed, w := range want {
		r := NewRand(seed)
		if got := [3]int64{r.Int63(), r.Int63(), r.Int63()}; got != w {
			t.Errorf("seed %d: first draws %v, want %v", seed, got, w)
		}
	}
}

// Re-seeding a used generator yields exactly a fresh generator's stream,
// and costs no allocation.
func TestNewRandReseedMatchesFresh(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 10; i++ {
		r.NormFloat64()
	}
	r.Seed(11)
	fresh := NewRand(11)
	for i := 0; i < 100; i++ {
		if a, b := r.Float64(), fresh.Float64(); a != b {
			t.Fatalf("draw %d: re-seeded %v, fresh %v", i, a, b)
		}
		if a, b := r.NormFloat64(), fresh.NormFloat64(); a != b {
			t.Fatalf("normal draw %d: re-seeded %v, fresh %v", i, a, b)
		}
		if a, b := r.Intn(97), fresh.Intn(97); a != b {
			t.Fatalf("int draw %d: re-seeded %d, fresh %d", i, a, b)
		}
	}
	if n := testing.AllocsPerRun(100, func() { r.Seed(7) }); n != 0 {
		t.Errorf("Seed allocates %v times, want 0", n)
	}
}

// A seeded Sample is a fixed function of (ball, rng state, n): its chains
// start at the ball's center and draw from per-chain PCG streams seeded in
// chain order. The hashes pin the exact draws, so a change to the chain
// decomposition, the seeding order, the chain generator or the hit-and-run
// step shows here.
func TestSampleMatchesGolden(t *testing.T) {
	want := map[int]uint64{3: 0x38f82f9991046d48, 5: 0x3bc4330b7ae814c1}
	for _, d := range []int{3, 5} {
		pts := scratchSample(t, testPoly(t, d, 21), rand.New(rand.NewSource(22)), 40)
		if len(pts) != 40 {
			t.Fatalf("d=%d: got %d points, want 40", d, len(pts))
		}
		if h := sampleHash(pts); h != want[d] {
			t.Errorf("d=%d: sample hash %#x, want %#x", d, h, want[d])
		}
	}
}

// Vertex enumeration walks the constraint subsets in lexicographic order,
// keeps the first representative of each quantized key and sorts the
// result, so the vertex list is a fixed function of the polytope.
func TestVerticesMatchGolden(t *testing.T) {
	want := map[int][][]float64{
		2: {
			{0.8841116734189256, 0.11588832658107438},
			{1, 0},
		},
		3: {
			{0, 0, 1},
			{0, 1, 0},
			{0.09163333933351603, 0, 0.908366660666484},
			{0.3542510372134795, 0.6457489627865205, 0},
			{0.3913435861890252, 0.47875898751602686, 0.12989742629494794},
		},
		4: {
			{0.68470574405441, 0, 0.31529425594559, 0},
			{0.7030072375818273, 0.040934801163150264, 0.2560579612550225, 0},
			{0.7203095400143026, 0, 0, 0.2796904599856974},
			{0.7417975363047372, 0.07574729258878056, 0, 0.18245517110648227},
			{0.7948552115312046, 0, 0.20514478846879536, 0},
			{0.8749660165149501, 0, 0, 0.12503398348504988},
		},
	}
	for _, d := range []int{2, 3, 4} {
		vs, err := testPoly(t, d, 31).VerticesCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) != len(want[d]) {
			t.Fatalf("d=%d: %d vertices, want %d: %v", d, len(vs), len(want[d]), vs)
		}
		for i := range vs {
			for j := range vs[i] {
				if vs[i][j] != want[d][i][j] {
					t.Fatalf("d=%d: vertex %d = %v, want %v", d, i, vs[i], want[d][i])
				}
			}
		}
	}
}
