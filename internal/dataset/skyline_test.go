package dataset

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// The skyline's row order must not depend on the host's core count: the
// dataset fingerprint hashes the rows in order and goes into every journaled
// session's create record, so a follower or restarted server with a
// different GOMAXPROCS would otherwise refuse the journal. The 30,000 rows
// (a, b, 30−a−b)/k put every k = 30 row on the skyline with an attribute sum
// tied at 1, so any core-dependent reordering of ties shows in the
// fingerprint. The pinned value is the single-core result.
func TestSkylineOrderIndependentOfCores(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := make([][]float64, 30000)
	for i := range pts {
		a := rng.Intn(31)
		b := rng.Intn(31 - a)
		k := float64(30 + rng.Intn(60))
		pts[i] = []float64{float64(a) / k, float64(b) / k, float64(30-a-b) / k}
	}
	d := &Dataset{Points: pts}
	const want = 0x86b6db7beb89d5ee
	for _, procs := range []int{1, 2, 3, 8} {
		prev := runtime.GOMAXPROCS(procs)
		sky := d.Skyline()
		runtime.GOMAXPROCS(prev)
		if sky.Len() != 705 {
			t.Fatalf("GOMAXPROCS %d: skyline has %d rows, want 705", procs, sky.Len())
		}
		if fp := sky.Fingerprint(); fp != want {
			t.Errorf("GOMAXPROCS %d: skyline fingerprint %#x, want %#x", procs, fp, uint64(want))
		}
	}
}

func TestSkylineLargeNoDominated(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := Independent(rng, 25000, 4)
	sky := d.Skyline()
	if sky.Len() == 0 || sky.Len() >= d.Len() {
		t.Fatalf("suspicious skyline size %d of %d", sky.Len(), d.Len())
	}
	// Sample pairs: no skyline point dominates another.
	idx := rng.Perm(sky.Len())
	if len(idx) > 200 {
		idx = idx[:200]
	}
	sort.Ints(idx)
	for _, i := range idx {
		for _, j := range idx {
			if i != j && Dominates(sky.Points[i], sky.Points[j]) {
				t.Fatalf("skyline point %d dominates %d", i, j)
			}
		}
	}
}

func BenchmarkSkyline100k4d(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	d := Anticorrelated(rng, 100000, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Skyline()
	}
}
