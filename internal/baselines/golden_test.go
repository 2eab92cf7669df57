package baselines

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"isrl/internal/core"
	"isrl/internal/dataset"
	"isrl/internal/geom"
)

// goldenSession is one pinned baseline session: the round count, the index
// of the returned point and an FNV-1a hash of the question trace.
type goldenSession struct {
	rounds, point int
	trace         uint64
}

// traceHash is FNV-1a over every (I, J, PreferredI) entry of a trace.
func traceHash(tr []core.QA) uint64 {
	h := fnv.New64a()
	var b [17]byte
	for _, qa := range tr {
		binary.LittleEndian.PutUint64(b[0:], uint64(qa.I))
		binary.LittleEndian.PutUint64(b[8:], uint64(qa.J))
		b[16] = 0
		if qa.PreferredI {
			b[16] = 1
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// goldenEstimateRounds is how many of UH-Simplex's first rounds have their
// max-regret estimate pinned, and goldenEstimateSamples its sample count.
const (
	goldenEstimateRounds  = 3
	goldenEstimateSamples = 200
)

// Every baseline session is a fixed function of its dataset, user and seed:
// the UH pair draws and Adaptive's pair pool come from the seeded rng, and
// each round's geometry reads (vertex list, inner ball, outer rectangle, cut
// probes) decide the next question. Each row pins UH-Random, UH-Simplex and
// Adaptive on one n = 400 dataset at ε = 0.05, plus the max-regret estimates
// on UH-Simplex's first rounds (zero past its last round), so a change to
// any geometry read or to the Figure 7–8 measurement shows here.
func TestBaselinesMatchGolden(t *testing.T) {
	golden := []struct {
		tag      string
		sessions [3]goldenSession // UH-Random, UH-Simplex, Adaptive
		est      [goldenEstimateRounds]uint64
	}{
		{"anti/d3/s1", [3]goldenSession{{7, 184, 0xee92bdcf59f445ee}, {7, 184, 0x7603a66a230cfa6a}, {11, 184, 0x2e9973b31bea8749}}, [goldenEstimateRounds]uint64{0x3fe43038410ae278, 0x3fcdf0f5fa3a6d69, 0x3fc775c5efa47bab}},
		{"anti/d3/s6", [3]goldenSession{{8, 347, 0xba0222b03a06f9cb}, {6, 6, 0xd047855dd21c8a3}, {14, 347, 0x3f24c0e5a28e4f69}}, [goldenEstimateRounds]uint64{0x3fdafa1b8075e341, 0x3fc6b8975d82d16d, 0x3fc1a9955bdfc8dd}},
		{"anti/d3/s7", [3]goldenSession{{8, 167, 0xac194a7640d0a007}, {4, 167, 0xa786dc56b7ffa9ba}, {15, 167, 0x21f625983176dba8}}, [goldenEstimateRounds]uint64{0x3fd988b397a1d0a7, 0x3fd9be91bb98a824, 0x3fd00f766c719098}},
		{"anti/d3/s9", [3]goldenSession{{4, 351, 0x2dac94d7473cf47a}, {5, 351, 0xf062e7b8a613c16d}, {12, 351, 0x1bae817f50b5799e}}, [goldenEstimateRounds]uint64{0x3fdeefc3dbbeaa56, 0x3fc64822e034be15, 0x3fb1bc43f9448763}},
		{"anti/d4/s1", [3]goldenSession{{16, 293, 0x91ad87b4cb5b1816}, {8, 293, 0xe33250980a5513cc}, {22, 293, 0x5c09cf9663491e39}}, [goldenEstimateRounds]uint64{0x3fe37960eb1bc933, 0x3fdbd38d405032f6, 0x3fe00b9d97bdca55}},
		{"anti/d4/s6", [3]goldenSession{{12, 371, 0x8d24b3681ec72426}, {6, 371, 0xa10c3e036cc3445b}, {24, 4, 0xf31e5475faadc92e}}, [goldenEstimateRounds]uint64{0x3fe7f01c8be7b1ff, 0x3fdc47fd238f4662, 0x3fd2ebe7827aa934}},
		{"anti/d4/s7", [3]goldenSession{{17, 272, 0x3235f54283c2b525}, {7, 104, 0xe8d917310c1f0017}, {20, 104, 0x1ba250aad443acf0}}, [goldenEstimateRounds]uint64{0x3fe36987b47f435a, 0x3fd564bc887620c3, 0x3fd34f889905c5c7}},
		{"anti/d4/s9", [3]goldenSession{{9, 378, 0xca3c2cddc4047efc}, {7, 378, 0xbd52ca27ed0f6163}, {19, 378, 0x44ea08ed7f9fc07}}, [goldenEstimateRounds]uint64{0x3fecfbb513a270f6, 0x3fded26eafa6016b, 0x3fcf1f91cb080c72}},
		{"corr/d3/s1", [3]goldenSession{{0, 80, 0xcbf29ce484222325}, {0, 80, 0xcbf29ce484222325}, {11, 258, 0xc79bd1168c0c0070}}, [goldenEstimateRounds]uint64{0, 0, 0}},
		{"corr/d3/s6", [3]goldenSession{{0, 36, 0xcbf29ce484222325}, {0, 36, 0xcbf29ce484222325}, {13, 316, 0xa78a298b08df12f1}}, [goldenEstimateRounds]uint64{0, 0, 0}},
		{"corr/d3/s7", [3]goldenSession{{0, 70, 0xcbf29ce484222325}, {0, 70, 0xcbf29ce484222325}, {12, 70, 0x3f7d9db1e1f32543}}, [goldenEstimateRounds]uint64{0, 0, 0}},
		{"corr/d3/s9", [3]goldenSession{{0, 17, 0xcbf29ce484222325}, {0, 17, 0xcbf29ce484222325}, {14, 17, 0xacc5e48be510e85d}}, [goldenEstimateRounds]uint64{0, 0, 0}},
		{"corr/d4/s1", [3]goldenSession{{0, 13, 0xcbf29ce484222325}, {0, 13, 0xcbf29ce484222325}, {15, 281, 0xa2c7ae4ee65908c4}}, [goldenEstimateRounds]uint64{0, 0, 0}},
		{"corr/d4/s6", [3]goldenSession{{0, 89, 0xcbf29ce484222325}, {0, 89, 0xcbf29ce484222325}, {11, 385, 0xae2bc7a87db2dcdc}}, [goldenEstimateRounds]uint64{0, 0, 0}},
		{"corr/d4/s7", [3]goldenSession{{0, 72, 0xcbf29ce484222325}, {0, 72, 0xcbf29ce484222325}, {17, 72, 0x63b59a554a202850}}, [goldenEstimateRounds]uint64{0, 0, 0}},
		{"corr/d4/s9", [3]goldenSession{{0, 40, 0xcbf29ce484222325}, {0, 40, 0xcbf29ce484222325}, {18, 40, 0x3fa330e329b31753}}, [goldenEstimateRounds]uint64{0, 0, 0}},
	}
	i := 0
	for _, kind := range []string{"anti", "corr"} {
		for _, d := range []int{3, 4} {
			for _, seed := range []int64{1, 6, 7, 9} {
				g := golden[i]
				i++
				if tag := fmt.Sprintf("%s/d%d/s%d", kind, d, seed); tag != g.tag {
					t.Fatalf("row %d is %s, want %s", i-1, g.tag, tag)
				}
				ds, err := dataset.Generate(kind, rand.New(rand.NewSource(seed)), 400, d)
				if err != nil {
					t.Fatal(err)
				}
				user := core.SimulatedUser{Utility: geom.SampleSimplex(rand.New(rand.NewSource(seed+50)), d)}

				var est [goldenEstimateRounds]uint64
				obs := core.ObserverFunc(func(r int, hs []geom.Halfspace) {
					if r <= goldenEstimateRounds {
						v := core.MaxRegretEstimate(ds, hs, rand.New(rand.NewSource(seed+int64(r))), goldenEstimateSamples)
						est[r-1] = math.Float64bits(v)
					}
				})
				algos := []struct {
					alg core.Algorithm
					obs core.Observer
				}{
					{NewUHRandom(UHConfig{}, rand.New(rand.NewSource(seed+100))), nil},
					{NewUHSimplex(UHConfig{}, rand.New(rand.NewSource(seed+100))), obs},
					{NewAdaptive(AdaptiveConfig{}, rand.New(rand.NewSource(seed+100))), nil},
				}
				for k, a := range algos {
					res, err := a.alg.Run(ds, user, 0.05, a.obs)
					if err != nil {
						t.Fatalf("%s %s: %v", a.alg.Name(), g.tag, err)
					}
					got := goldenSession{rounds: res.Rounds, point: res.PointIndex, trace: traceHash(res.Trace)}
					if got != g.sessions[k] {
						t.Errorf("%s %s: got %d rounds, point %d, trace %#x; want %+v",
							a.alg.Name(), g.tag, got.rounds, got.point, got.trace, g.sessions[k])
					}
				}
				if est != g.est {
					t.Errorf("UH-Simplex %s: estimate bits %#x, want %#x", g.tag, est, g.est)
				}
			}
		}
	}
}
