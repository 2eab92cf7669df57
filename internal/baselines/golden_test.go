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
		{"anti/d3/s1", [3]goldenSession{{7, 184, 0xee92bdcf59f445ee}, {7, 184, 0x7603a66a230cfa6a}, {11, 184, 0x9706bd3545f56845}}, [goldenEstimateRounds]uint64{0x3fe0c47c867cd074, 0x3fcfc6824873a4e7, 0x3fc8ed57b0b4390c}},
		{"anti/d3/s6", [3]goldenSession{{8, 347, 0xba0222b03a06f9cb}, {6, 6, 0xd047855dd21c8a3}, {14, 347, 0xbe7e1dfb2d0b9865}}, [goldenEstimateRounds]uint64{0x3fdb58a51f66f690, 0x3fc68bad7393bb24, 0x3fc1f6ffc93fe7fd}},
		{"anti/d3/s7", [3]goldenSession{{8, 167, 0xac194a7640d0a007}, {4, 167, 0xa786dc56b7ffa9ba}, {15, 167, 0x8e858a87028808aa}}, [goldenEstimateRounds]uint64{0x3fdd85cb1d387a8c, 0x3fdcb43ba789d62f, 0x3fd02d4946995115}},
		{"anti/d3/s9", [3]goldenSession{{4, 351, 0x2dac94d7473cf47a}, {5, 351, 0xf062e7b8a613c16d}, {12, 351, 0xed39af9d2c98596c}}, [goldenEstimateRounds]uint64{0x3fdd57c533b474c1, 0x3fc4df2795331e55, 0x3fb16dbb367ebe31}},
		{"anti/d4/s1", [3]goldenSession{{16, 293, 0x91ad87b4cb5b1816}, {8, 293, 0xe33250980a5513cc}, {22, 293, 0xf55b5e59778956b}}, [goldenEstimateRounds]uint64{0x3fe24ebbfd0277b8, 0x3fd78f16135d48a3, 0x3fddc7f58d6e2785}},
		{"anti/d4/s6", [3]goldenSession{{12, 371, 0x8d24b3681ec72426}, {6, 371, 0xa10c3e036cc3445b}, {24, 4, 0x72151224a39c3599}}, [goldenEstimateRounds]uint64{0x3fe6786931808cbe, 0x3fdc57dd0bd52c8f, 0x3fd53fc45b618282}},
		{"anti/d4/s7", [3]goldenSession{{17, 272, 0x3235f54283c2b525}, {7, 104, 0xe8d917310c1f0017}, {20, 104, 0x619126eff170b18}}, [goldenEstimateRounds]uint64{0x3fe199d02d8cc57e, 0x3fd5a2de330167da, 0x3fd3df953bbc7768}},
		{"anti/d4/s9", [3]goldenSession{{9, 378, 0xca3c2cddc4047efc}, {7, 378, 0xbd52ca27ed0f6163}, {19, 378, 0x4f8ef66ab8a6211b}}, [goldenEstimateRounds]uint64{0x3fee4395076d6e1f, 0x3fe67a54ad794ceb, 0x3fd4a3d493fc1553}},
		{"corr/d3/s1", [3]goldenSession{{0, 80, 0xcbf29ce484222325}, {0, 80, 0xcbf29ce484222325}, {11, 258, 0x1a56e0a7d94c28dd}}, [goldenEstimateRounds]uint64{0, 0, 0}},
		{"corr/d3/s6", [3]goldenSession{{0, 36, 0xcbf29ce484222325}, {0, 36, 0xcbf29ce484222325}, {13, 316, 0x2cb5f14571900e11}}, [goldenEstimateRounds]uint64{0, 0, 0}},
		{"corr/d3/s7", [3]goldenSession{{0, 70, 0xcbf29ce484222325}, {0, 70, 0xcbf29ce484222325}, {12, 70, 0x742c1e3906bce6d3}}, [goldenEstimateRounds]uint64{0, 0, 0}},
		{"corr/d3/s9", [3]goldenSession{{0, 17, 0xcbf29ce484222325}, {0, 17, 0xcbf29ce484222325}, {14, 17, 0xbcb511388648a85c}}, [goldenEstimateRounds]uint64{0, 0, 0}},
		{"corr/d4/s1", [3]goldenSession{{0, 13, 0xcbf29ce484222325}, {0, 13, 0xcbf29ce484222325}, {15, 281, 0x1a649b39d720cf0e}}, [goldenEstimateRounds]uint64{0, 0, 0}},
		{"corr/d4/s6", [3]goldenSession{{0, 89, 0xcbf29ce484222325}, {0, 89, 0xcbf29ce484222325}, {11, 385, 0x88f0f83ca32f4777}}, [goldenEstimateRounds]uint64{0, 0, 0}},
		{"corr/d4/s7", [3]goldenSession{{0, 72, 0xcbf29ce484222325}, {0, 72, 0xcbf29ce484222325}, {17, 72, 0x8fe88406ea8844ea}}, [goldenEstimateRounds]uint64{0, 0, 0}},
		{"corr/d4/s9", [3]goldenSession{{0, 40, 0xcbf29ce484222325}, {0, 40, 0xcbf29ce484222325}, {18, 40, 0x8c63212002ac30a7}}, [goldenEstimateRounds]uint64{0, 0, 0}},
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
