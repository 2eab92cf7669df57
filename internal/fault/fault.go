// Package fault is a seeded, deterministic fault-injection harness for the
// numeric and serving layers. Production code threads named injection points
// (lp solves, vertex enumeration, hit-and-run sampling, the session oracle)
// through Hit; without an installed Plan each hook is a single atomic load,
// so the instrumentation is free in normal operation.
//
// A Plan maps point names to a Spec: with what probability the point returns
// an injected error or panics, how much latency it adds, and how many hits
// it ignores before arming. All randomness comes from one seeded source, so
// a single-threaded run with a given seed replays the exact same fault
// sequence — the property chaos tests rely on to be regressions rather than
// flakes. Injection volumes are counted into the process-wide obs registry
// (fault.hits / fault.errors / fault.panics / fault.delays) so a chaos run
// is auditable from /metrics.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"isrl/internal/obs"
)

// Well-known injection point names. Production hooks use these constants;
// plans may also name points of their own for application-level hooks.
const (
	PointLPSolve    = "lp.solve"         // internal/lp: one simplex solve
	PointVertices   = "geom.vertices"    // internal/geom: one scratch vertex enumeration (see ParsePlan)
	PointSample     = "geom.sample"      // internal/geom: one hit-and-run sampling run
	PointOracle     = "core.oracle"      // internal/core: one session oracle question
	PointWALWrite   = "wal.write"        // internal/wal: one journal record write
	PointWALSync    = "wal.sync"         // internal/wal: one journal fsync
	PointWALRename  = "wal.rename"       // internal/wal: one segment rename (rotation/compaction)
	PointClientReq  = "client.request"   // client: one HTTP attempt leaving the SDK
	PointLPWarm     = "lp.warm"          // internal/lp: one warm-start repair (push or re-optimize)
	PointIncClip    = "geom.inc.clip"    // internal/geom: one incremental halfspace clip
	PointIncWitness = "geom.inc.witness" // internal/geom: one outer-rectangle pass that may reuse witnesses

	PointReplSend      = "repl.send"      // internal/repl: one batch/snapshot frame leaving the primary
	PointReplApply     = "repl.apply"     // internal/repl: one batch/snapshot applied on the follower
	PointReplHeartbeat = "repl.heartbeat" // internal/repl: one heartbeat leaving the primary

	PointScrubRead = "wal.scrub.read" // internal/wal: one rate-limited scrubber read of a sealed segment

	PointTopIndex = "dataset.top.index" // internal/dataset: the one top-1 candidate index build of a dataset
)

// ErrInjected is the sentinel wrapped by every injected error; callers test
// provenance with errors.Is(err, fault.ErrInjected).
var ErrInjected = errors.New("fault: injected error")

// ErrTornWrite is the sentinel for a torn-write fault: the injection point
// should persist only a prefix of the data it was about to write (modeling a
// power cut mid-write) and then fail. It wraps ErrInjected, so generic
// provenance checks keep working.
var ErrTornWrite = fmt.Errorf("%w: torn write", ErrInjected)

// Spec configures one injection point.
//
// TornProb shares ErrProb's random draw so arming it never perturbs the
// fault sequence of other points under a fixed seed: a single roll r injects
// a torn write when r < TornProb and a plain error when
// TornProb ≤ r < TornProb+ErrProb.
type Spec struct {
	ErrProb   float64       // probability of returning an injected error per hit
	PanicProb float64       // probability of panicking per hit
	TornProb  float64       // probability of returning ErrTornWrite per hit (disk points)
	Latency   time.Duration // delay added to every armed hit
	After     int           // number of initial hits to pass through unarmed
	Err       error         // error payload; nil selects a default wrapping ErrInjected
}

// Plan is a set of armed injection points sharing one seeded random source.
// Hit, Set and Counts are safe for concurrent use; determinism is guaranteed
// for single-goroutine hit sequences (concurrent hits still inject at the
// configured rates, but interleaving reorders the random draws).
type Plan struct {
	mu    sync.Mutex
	rng   *rand.Rand
	specs map[string]Spec
	hits  map[string]int
	inj   map[string]int
}

// Injection metrics, shared by all plans.
var (
	mHits   = obs.Default().Counter("fault.hits")
	mErrors = obs.Default().Counter("fault.errors")
	mPanics = obs.Default().Counter("fault.panics")
	mDelays = obs.Default().Counter("fault.delays")
)

// NewPlan returns an empty plan drawing randomness from seed.
func NewPlan(seed int64) *Plan {
	return &Plan{
		rng:   rand.New(rand.NewSource(seed)),
		specs: make(map[string]Spec),
		hits:  make(map[string]int),
		inj:   make(map[string]int),
	}
}

// Set arms (or re-arms) the injection point named point.
func (p *Plan) Set(point string, s Spec) *Plan {
	p.mu.Lock()
	p.specs[point] = s
	p.mu.Unlock()
	return p
}

// Hits returns how many times the named point was evaluated (armed or not).
func (p *Plan) Hits(point string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits[point]
}

// Injections returns how many faults (errors + panics) the named point
// actually injected.
func (p *Plan) Injections(point string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inj[point]
}

// hit evaluates one pass through the injection point. It sleeps the
// configured latency, then panics or returns an injected error according to
// the rolled probabilities. Unconfigured points are free apart from the map
// lookup and consume no randomness.
func (p *Plan) hit(point string) error {
	p.mu.Lock()
	spec, ok := p.specs[point]
	if !ok {
		p.mu.Unlock()
		return nil
	}
	p.hits[point]++
	n := p.hits[point]
	armed := n > spec.After
	var panicRoll, errRoll float64
	if armed {
		panicRoll, errRoll = p.rng.Float64(), p.rng.Float64()
	}
	if armed && (panicRoll < spec.PanicProb || errRoll < spec.TornProb+spec.ErrProb) {
		p.inj[point]++
	}
	p.mu.Unlock()
	mHits.Inc()
	if !armed {
		return nil
	}
	if spec.Latency > 0 {
		mDelays.Inc()
		time.Sleep(spec.Latency)
	}
	if panicRoll < spec.PanicProb {
		mPanics.Inc()
		panic(fmt.Sprintf("fault: injected panic at %q (hit %d)", point, n))
	}
	if errRoll < spec.TornProb {
		mErrors.Inc()
		return fmt.Errorf("%w at %q (hit %d)", ErrTornWrite, point, n)
	}
	if errRoll < spec.TornProb+spec.ErrProb {
		mErrors.Inc()
		if spec.Err != nil {
			return spec.Err
		}
		return fmt.Errorf("%w at %q (hit %d)", ErrInjected, point, n)
	}
	return nil
}

// active is the process-wide installed plan; nil means every Hit is a no-op.
var active atomic.Pointer[Plan]

// Install makes p the process-wide plan evaluated by Hit. Install(nil)
// disarms all injection. Tests installing a plan must uninstall it (defer
// fault.Install(nil)) so suites stay independent.
func Install(p *Plan) { active.Store(p) }

// Installed returns the currently installed plan, or nil.
func Installed() *Plan { return active.Load() }

// Hit evaluates the named injection point against the installed plan. With
// no plan installed it costs one atomic load. It may sleep, panic, or return
// an injected error, per the plan's Spec for the point.
func Hit(point string) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	return p.hit(point)
}

// ParsePlan builds a plan from a compact spec string, the format of
// isrl-serve's -fault flag:
//
//	point:key=value,key=value[;point:...]
//
// Keys: err (error probability), panic (panic probability), torn (torn-write
// probability, disk points), lat (latency, Go duration), after (hits ignored
// before arming). Example:
//
//	lp.solve:err=0.01;geom.vertices:panic=0.005,after=10;core.oracle:lat=50ms
//
// geom.vertices fires only on scratch vertex enumerations: a session's first
// vertex read and the reads after a halfspace clip falls back. A clipped
// round serves its maintained list without a hit, so a plan that wants the
// fault every round also arms geom.inc.clip:err=1.
func ParsePlan(spec string, seed int64) (*Plan, error) {
	p := NewPlan(seed)
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		point, kvs, ok := strings.Cut(entry, ":")
		if !ok || point == "" {
			return nil, fmt.Errorf("fault: bad spec entry %q (want point:key=value,...)", entry)
		}
		var s Spec
		for _, kv := range strings.Split(kvs, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return nil, fmt.Errorf("fault: bad spec pair %q in %q", kv, entry)
			}
			var err error
			switch key {
			case "err":
				s.ErrProb, err = strconv.ParseFloat(val, 64)
			case "panic":
				s.PanicProb, err = strconv.ParseFloat(val, 64)
			case "torn":
				s.TornProb, err = strconv.ParseFloat(val, 64)
			case "lat":
				s.Latency, err = time.ParseDuration(val)
			case "after":
				s.After, err = strconv.Atoi(val)
			default:
				return nil, fmt.Errorf("fault: unknown spec key %q in %q", key, entry)
			}
			if err != nil {
				return nil, fmt.Errorf("fault: bad value for %q in %q: %v", key, entry, err)
			}
		}
		p.Set(point, s)
	}
	return p, nil
}

// String renders the armed points for logging.
func (p *Plan) String() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	names := make([]string, 0, len(p.specs))
	for name := range p.specs {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		s := p.specs[name]
		parts = append(parts, fmt.Sprintf("%s{err=%g panic=%g torn=%g lat=%s after=%d}",
			name, s.ErrProb, s.PanicProb, s.TornProb, s.Latency, s.After))
	}
	return strings.Join(parts, " ")
}
