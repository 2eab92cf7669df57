package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"sort"

	"isrl/internal/core"
	"isrl/internal/wal"
)

// replayEvery picks the sessions replayed in process: every 16th ordinal.
const replayEvery = 16

// checkOutcomes verifies every finished session: the result is not
// degraded, it is a skyline tuple, EA's regret under the session's own
// utility is at most ε, and every replayEvery-th session replays in
// process to the same tuple in the same number of rounds.
func checkOutcomes(r *recorder, st *stack, w workload, out *outcomes) {
	out.mu.Lock()
	defer out.mu.Unlock()
	ids := make([]int, 0, len(out.m))
	for n := range out.m {
		ids = append(ids, n)
	}
	sort.Ints(ids)
	for _, n := range ids {
		oc := out.m[n]
		if oc.abandoned {
			continue
		}
		res := oc.result
		id := fmt.Sprintf("s%d", n)
		r.check(!res.Degraded, "%s: degraded result (%s)", id, res.DegradedReason)
		inRange := res.PointIndex >= 0 && res.PointIndex < st.ds.Len()
		r.check(inRange && slices.Equal(res.Point, st.ds.Points[res.PointIndex]), "%s: point %d is not the skyline tuple it names", id, res.PointIndex)
		if !inRange {
			continue
		}
		if w.Algo == "ea" {
			rr := st.ds.RegretRatio(st.ds.Points[res.PointIndex], oc.utility)
			r.check(rr <= eps+1e-9, "%s: regret ratio %.4f above ε=%.2f", id, rr, eps)
		}
		if n%replayEvery == 0 {
			alg := st.factory(st.base + int64(n))
			want, err := alg.Run(st.ds, core.SimulatedUser{Utility: oc.utility}, eps, nil)
			r.check(err == nil && want.PointIndex == res.PointIndex && want.Rounds == res.Rounds,
				"%s: in-process replay gave tuple %d in %d rounds (err %v), the service %d in %d",
				id, want.PointIndex, want.Rounds, err, res.PointIndex, res.Rounds)
		}
	}
}

// roundsPerSession is the mean number of questions over sessions
// s1..sN that finished; sessions the workload abandoned are skipped.
func roundsPerSession(out *outcomes, sessions int) float64 {
	out.mu.Lock()
	defer out.mu.Unlock()
	var rounds []float64
	for n := 1; n <= sessions; n++ {
		if oc, ok := out.m[n]; ok && !oc.abandoned {
			rounds = append(rounds, float64(oc.result.Rounds))
		}
	}
	return mean(rounds)
}

// auditJournals reopens both journals once serving has stopped. Every
// session present in both must carry the same answers and tombstone state,
// and every session still live on the primary must exist on the follower.
func auditJournals(r *recorder, st *stack) {
	open := func(name string) map[string]wal.SessionState {
		l, states, err := wal.Open(filepath.Join(st.dir, name), wal.Options{Logger: newLogger()})
		r.check(err == nil, "reopen %s journal: %v", name, err)
		if err != nil {
			return nil
		}
		defer l.Close()
		m := make(map[string]wal.SessionState, len(states))
		for _, s := range states {
			m[s.ID] = s
		}
		return m
	}
	primary, follower := open("primary"), open("follower")
	if primary == nil || follower == nil {
		return
	}
	ids := make([]string, 0, len(primary))
	for id := range primary {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		p := primary[id]
		f, ok := follower[id]
		if !ok {
			r.check(p.Finished, "%s: live on the primary but missing on the follower", id)
			continue
		}
		r.check(slices.Equal(p.Answers, f.Answers) && p.Finished == f.Finished,
			"%s: journals diverge (primary %d answers finished=%v, follower %d answers finished=%v)",
			id, len(p.Answers), p.Finished, len(f.Answers), f.Finished)
	}
}
