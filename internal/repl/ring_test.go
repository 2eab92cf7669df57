package repl

import (
	"math/rand"
	"reflect"
	"testing"

	"isrl/internal/wal"
)

// ringEntry is a synthetic tail entry whose cumulative byte position is a
// fixed function of its LSN, so byte baselines are checkable.
func ringEntry(lsn int64) wal.Entry {
	return wal.Entry{LSN: lsn, Bytes: 10 * lsn, Record: wal.Record{Kind: wal.KindAnswer, ID: "s", Round: int(lsn)}}
}

func lsnsOf(batch []wal.Entry) []int64 {
	var out []int64
	for _, e := range batch {
		out = append(out, e.LSN)
	}
	return out
}

// TestTailRingWrap walks the circular tail ring through its wrap point:
// batches that straddle the physical end of the buffer come back in LSN
// order, the byte baseline after an eviction is the evicted entry's
// position, a position the ring overwrote demands a snapshot, and a feed
// gap collapses the ring to the new entry with an unknown baseline — which
// a later eviction restores.
func TestTailRingWrap(t *testing.T) {
	n := NewPrimary(nil, "", Options{RingCap: 4, BatchMax: 3})
	type want struct {
		lsns      []int64
		prevBytes int64
		ok        bool
	}
	check := func(step string, after int64, w want) {
		t.Helper()
		batch, prev, ok := n.takeBatch(after)
		if ok != w.ok || (ok && len(batch) > 0 && prev != w.prevBytes) || !reflect.DeepEqual(lsnsOf(batch), w.lsns) {
			t.Fatalf("%s: takeBatch(%d) = %v prev %d ok %v; want %v prev %d ok %v",
				step, after, lsnsOf(batch), prev, ok, w.lsns, w.prevBytes, w.ok)
		}
	}
	for lsn := int64(1); lsn <= 4; lsn++ {
		n.feedEntry(ringEntry(lsn))
	}
	check("full, unwrapped", 0, want{[]int64{1, 2, 3}, 0, true})
	check("full, tail", 3, want{[]int64{4}, 30, true})

	for lsn := int64(5); lsn <= 7; lsn++ {
		n.feedEntry(ringEntry(lsn))
	}
	if n.head != 3 || n.floor != 3 || n.floorBytes != 30 {
		t.Fatalf("after 3 evictions: head %d floor %d floorBytes %d; want 3, 3, 30", n.head, n.floor, n.floorBytes)
	}
	check("evicted position", 2, want{nil, 0, false})
	check("floor after eviction", 3, want{[]int64{4, 5, 6}, 30, true})
	check("across the wrap point", 4, want{[]int64{5, 6, 7}, 40, true})
	check("wrapped tail", 5, want{[]int64{6, 7}, 50, true})
	check("caught up", 7, want{nil, 0, true})

	n.feedEntry(ringEntry(6)) // duplicate: ignored
	check("duplicate ignored", 5, want{[]int64{6, 7}, 50, true})

	n.feedEntry(ringEntry(10)) // gap: 8 and 9 never arrived
	if len(n.ring) != 1 || n.head != 0 || n.floor != 9 || n.floorBytes != -1 {
		t.Fatalf("after gap: len %d head %d floor %d floorBytes %d; want 1, 0, 9, -1",
			len(n.ring), n.head, n.floor, n.floorBytes)
	}
	check("behind the gap", 7, want{nil, 0, false})
	check("gap entry, unknown baseline", 9, want{[]int64{10}, -1, true})

	for lsn := int64(11); lsn <= 14; lsn++ {
		n.feedEntry(ringEntry(lsn))
	}
	check("eviction restores the baseline", 10, want{[]int64{11, 12, 13}, 100, true})
	check("wrapped after gap", 12, want{[]int64{13, 14}, 120, true})
}

// TestTailRingMatchesLinearModel drives the circular ring and a plain
// slice model with the same random feed — mostly consecutive entries, some
// duplicates, some gaps — and requires identical takeBatch answers at every
// position after every feed.
func TestTailRingMatchesLinearModel(t *testing.T) {
	const ringCap, batchMax = 5, 3
	n := NewPrimary(nil, "", Options{RingCap: ringCap, BatchMax: batchMax})
	var (
		model      []wal.Entry
		floor      int64
		floorBytes int64
	)
	feedModel := func(e wal.Entry) {
		next := floor + int64(len(model)) + 1
		switch {
		case e.LSN < next:
			return
		case e.LSN > next:
			model, floor, floorBytes = nil, e.LSN-1, -1
		}
		model = append(model, e)
		if len(model) > ringCap {
			floorBytes = model[0].Bytes
			model = model[1:]
			floor++
		}
	}
	takeModel := func(after int64) ([]wal.Entry, int64, bool) {
		if after < floor {
			return nil, 0, false
		}
		i := int(after - floor)
		if i >= len(model) {
			return nil, 0, true
		}
		prev := floorBytes
		if i > 0 {
			prev = model[i-1].Bytes
		}
		end := i + batchMax
		if end > len(model) {
			end = len(model)
		}
		return model[i:end], prev, true
	}
	rng := rand.New(rand.NewSource(5))
	last := int64(0)
	for step := 0; step < 400; step++ {
		lsn := last + 1
		switch r := rng.Intn(10); {
		case r == 0 && last > 2:
			lsn = last - int64(rng.Intn(3)) // duplicate
		case r == 1:
			lsn = last + 2 + int64(rng.Intn(3)) // gap
		}
		if lsn > last {
			last = lsn
		}
		e := ringEntry(lsn)
		n.feedEntry(e)
		feedModel(e)
		for after := floor - 2; after <= last+1; after++ {
			gb, gp, gok := n.takeBatch(after)
			wb, wp, wok := takeModel(after)
			if gok != wok || !reflect.DeepEqual(lsnsOf(gb), lsnsOf(wb)) || (len(wb) > 0 && gp != wp) {
				t.Fatalf("step %d after %d: ring %v prev %d ok %v; model %v prev %d ok %v",
					step, after, lsnsOf(gb), gp, gok, lsnsOf(wb), wp, wok)
			}
		}
	}
}
