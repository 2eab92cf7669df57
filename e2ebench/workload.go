package main

import (
	"time"
)

// workload is one traffic mix against one trained serving stack. The four
// mixes exist because no single one shows every layer's gain: each stresses
// a different layer and leaves the others nearly idle, so an optimisation
// of one layer has a workload where it should move the numbers and one
// where it should not.
type workload struct {
	Name string
	Why  string

	Algo     string // "ea" or "aa"
	Data     string // dataset.Generate kind
	N, D     int    // synthetic shape; car and player have fixed shapes
	Episodes int    // training episodes run during set-up

	Warmup time.Duration // load before the measured window starts

	// Sessions s1..sN are all run to their end, and rounds_per_session
	// averages them. EA's question count varies more from user to user than
	// AA's, so EA averages more sessions to hold the metric's spread over
	// seeds to about 1%.
	Sessions int

	// Open-loop parameters; Rate == 0 selects the closed loop.
	Rate  float64       // session arrivals per second (Poisson)
	Think time.Duration // mean of the exponential think time before each answer
}

const eps = 0.1

// closedClients is the closed loop's concurrency and the transport's
// connection cap: one client per CPU of the 2-CPU host the baseline was
// recorded on.
const closedClients = 2

// Open-loop mix. These shares are synthetic and fixed: they are not a
// model of real user traffic, for which no data exists here. Each one
// exists so that a code path of the service runs at a steady rate beside
// the answers: GET reads of a live session, the duplicate-round replay,
// and DELETE tombstones that drive journal compaction.
const (
	refetchShare = 0.10 // questions fetched again with GET before answering
	dupShare     = 0.05 // answers re-sent with the same round
	abandonShare = 0.20 // sessions DELETEd instead of answered at a random round
	abandonMax   = 4    // the abandon round is uniform in 1..abandonMax
)

var workloads = []workload{
	{
		Name:     "ea_car",
		Why:      "EA on the 3-d car stand-in, 2 closed-loop clients: short sessions, so HTTP, JSON, session create, WAL fsync and replication dominate",
		Algo:     "ea",
		Data:     "car",
		Episodes: 200,
		Warmup:   3 * time.Second,
		Sessions: 2000,
	},
	{
		Name:     "ea_anti_d4",
		Why:      "EA on anti-correlated d=4 with a 10x larger skyline: skyline scans in the algorithm dominate and the serving stack barely shows",
		Algo:     "ea",
		Data:     "anti",
		N:        10000,
		D:        4,
		Episodes: 200,
		Warmup:   3 * time.Second,
		Sessions: 2000,
	},
	{
		Name: "aa_player",
		Why:  "AA on the 20-d player stand-in, about 35 rounds a session: LP solves and action selection dominate, the paper's high-dimensional case",
		Algo: "aa",
		Data: "player",
		// AA's question count barely depends on training (34-37 rounds
		// from 0 to 50 episodes), and each 10 episodes add about 1.5 s to
		// every one of a run's set-ups.
		Episodes: 20,
		Warmup:   3 * time.Second,
		Sessions: 400,
	},
	{
		Name: "ea_car_open",
		Why:  "ea_car's stack under a synthetic open loop at about 25% load: idle live sessions, GETs, duplicate answers and DELETEs at fixed coverage shares",
		Algo: "ea",
		Data: "car",
		// 150 arrivals a second is about a quarter of the session rate
		// ea_car's closed loop sustains on the 2-CPU host. The 1 s mean
		// think time is chosen, not measured; it keeps a few hundred
		// sessions live and idle.
		Episodes: 200,
		Warmup:   5 * time.Second,
		Sessions: 2000,
		Rate:     150,
		Think:    time.Second,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
