package fair

import (
	"sort"
	"testing"

	"psbox/internal/sim"
)

// tapp is a test driver's per-app state: the ledger entry plus the two
// demand predicates' answers.
type tapp struct {
	App
	demand, ready bool
}

func newLedger() Ledger[*tapp] {
	return NewLedger(func(a *tapp) bool { return a.demand }, func(a *tapp) bool { return a.ready })
}

func join(l *Ledger[*tapp], id int, credit float64, boxed, demand, ready bool) *tapp {
	a := &tapp{demand: demand, ready: ready}
	l.Join(id, a)
	a.Credit, a.Boxed = credit, boxed
	return a
}

// The reference loops are the ones the accelerator driver and the packet
// scheduler each kept before the ledger: apps in a map, picks over sorted
// IDs.

func refRefresh(apps map[int]*tapp, floor float64) float64 {
	min := -1.0
	for _, a := range apps {
		if a.Boxed || !a.demand {
			continue
		}
		if min < 0 || a.Credit < min {
			min = a.Credit
		}
	}
	if min > floor {
		floor = min
	}
	return floor
}

func refPick(apps map[int]*tapp, boxed bool) *tapp {
	ids := make([]int, 0, len(apps))
	for id := range apps {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var best *tapp
	for _, id := range ids {
		a := apps[id]
		if a.Boxed != boxed || !a.ready {
			continue
		}
		if best == nil || a.Credit < best.Credit {
			best = a
		}
	}
	return best
}

func refMinOther(apps map[int]*tapp, box *tapp) (float64, bool) {
	var min float64
	found := false
	for _, a := range apps {
		if a == box || !a.demand {
			continue
		}
		if !found || a.Credit < min {
			min = a.Credit
			found = true
		}
	}
	return min, found
}

func refDeserves(apps map[int]*tapp, box *tapp) bool {
	for _, a := range apps {
		if a == box || a.Boxed {
			continue
		}
		if box.Credit > a.Credit {
			return false
		}
	}
	return true
}

// TestLedgerMatchesReference: on seeded random ledgers, pick, refresh,
// min-other and deserves agree with the map-and-sorted-IDs loops.
func TestLedgerMatchesReference(t *testing.T) {
	rng := sim.NewRand(18)
	for trial := 0; trial < 300; trial++ {
		l := newLedger()
		apps := map[int]*tapp{}
		for n := 1 + rng.Intn(12); len(apps) < n; {
			id := 1 + rng.Intn(40)
			if _, dup := apps[id]; !dup {
				apps[id] = join(&l, id, 0, false, false, false)
			}
		}
		got := l.Apps()
		if len(got) != len(apps) || !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].ID < got[j].ID }) {
			t.Fatalf("trial %d: ledger holds %d apps, want %d in ascending ID order", trial, len(got), len(apps))
		}
		floor := 0.0
		for round := 0; round < 20; round++ {
			for _, a := range l.Apps() {
				a.Credit = float64(rng.Intn(8)) / 2 // coarse credits force ties
				a.Boxed = rng.Intn(3) == 0
				a.demand = rng.Intn(4) != 0
				a.ready = a.demand && rng.Intn(2) == 0
			}
			floor = refRefresh(apps, floor)
			l.Refresh()
			if l.Floor() != floor {
				t.Fatalf("trial %d round %d: floor %v, reference %v", trial, round, l.Floor(), floor)
			}
			for _, boxed := range []bool{false, true} {
				if got, want := l.Pick(boxed), refPick(apps, boxed); got != want {
					t.Fatalf("trial %d round %d: Pick(%v) = %+v, reference %+v", trial, round, boxed, got, want)
				}
			}
			for id, box := range apps {
				if g, ok := l.Get(id); !ok || g != box {
					t.Fatalf("trial %d: Get(%d) = %+v, %v", trial, id, g, ok)
				}
				gotMin, gotOK := l.MinOther(box)
				wantMin, wantOK := refMinOther(apps, box)
				if gotMin != wantMin || gotOK != wantOK {
					t.Fatalf("trial %d round %d: MinOther(%d) = %v, %v; reference %v, %v", trial, round, id, gotMin, gotOK, wantMin, wantOK)
				}
				if got, want := l.Deserves(box), refDeserves(apps, box); got != want {
					t.Fatalf("trial %d round %d: Deserves(%d) = %v, reference %v", trial, round, id, got, want)
				}
			}
		}
	}
}

func TestLedgerPickTieGoesToLowestID(t *testing.T) {
	l := newLedger()
	for _, id := range []int{9, 3, 7, 5} {
		join(&l, id, 2, id > 5, true, true)
	}
	if got := l.Pick(false); got.ID != 3 {
		t.Errorf("unboxed tie picked app %d, want 3", got.ID)
	}
	if got := l.Pick(true); got.ID != 7 {
		t.Errorf("boxed tie picked app %d, want 7", got.ID)
	}
	if _, ok := l.Get(4); ok {
		t.Error("Get found an app that never joined")
	}
}

func TestLedgerFloor(t *testing.T) {
	l := newLedger()
	busy := join(&l, 1, 5, false, true, true)
	join(&l, 2, 1, true, true, true) // boxed: ignored
	idle := join(&l, 3, 0, false, false, false)
	l.Refresh()
	if l.Floor() != 5 {
		t.Fatalf("floor %v, want 5 (boxed and idle apps ignored)", l.Floor())
	}
	busy.Credit = 2
	l.Refresh()
	if l.Floor() != 5 {
		t.Fatalf("floor fell to %v", l.Floor())
	}
	busy.demand = false
	l.Refresh()
	if l.Floor() != 5 {
		t.Fatalf("floor moved to %v with no unboxed app competing", l.Floor())
	}
	newcomer := &tapp{}
	l.Join(6, newcomer)
	if newcomer.Credit != 5 {
		t.Errorf("newcomer joined at %v, want the floor 5", newcomer.Credit)
	}
	l.Wake(idle)
	if idle.Credit != 5 {
		t.Errorf("idle app woke at %v, want the floor 5", idle.Credit)
	}
	rich := join(&l, 8, 7, false, false, false)
	l.Wake(rich)
	if rich.Credit != 7 {
		t.Errorf("Wake lowered credit to %v", rich.Credit)
	}
}

func TestLedgerMinOther(t *testing.T) {
	l := newLedger()
	box := join(&l, 1, 0, true, true, true)
	join(&l, 2, 3, true, true, false)   // another sandbox: counted
	join(&l, 3, 4, false, true, false)  // unboxed with demand
	join(&l, 4, 1, false, false, false) // idle: not competing
	if min, ok := l.MinOther(box); !ok || min != 3 {
		t.Errorf("MinOther = %v, %v; want 3 (the other sandbox)", min, ok)
	}
	solo := newLedger()
	b := join(&solo, 1, 0, true, true, true)
	if min, ok := solo.MinOther(b); ok {
		t.Errorf("MinOther counted the box itself: %v", min)
	}
}

func TestLedgerDeserves(t *testing.T) {
	l := newLedger()
	box := join(&l, 1, 5, true, true, true)
	join(&l, 2, 1, true, true, true)    // boxed: ignored
	join(&l, 3, 5, false, false, false) // idle and tied: demand ignored, tie deserves
	if !l.Deserves(box) {
		t.Fatal("box should deserve the device")
	}
	join(&l, 4, 4, false, false, false) // idle but ahead on credit
	if l.Deserves(box) {
		t.Fatal("box deserves the device over an idle app with less credit")
	}
}

func TestLedgerWalksDoNotAllocate(t *testing.T) {
	l := newLedger()
	for id := 1; id <= 8; id++ {
		join(&l, id, float64(id%3), id%2 == 0, id%4 != 0, id%3 != 0)
	}
	box := l.Pick(true)
	allocs := testing.AllocsPerRun(100, func() {
		l.Refresh()
		_ = l.Pick(false)
		_ = l.Pick(true)
		_, _ = l.MinOther(box)
		_ = l.Deserves(box)
		_, _ = l.Get(5)
	})
	if allocs != 0 {
		t.Fatalf("ledger walks allocate %v times per run", allocs)
	}
}

func TestLedgerJoinTwicePanics(t *testing.T) {
	l := newLedger()
	join(&l, 1, 0, false, false, false)
	defer func() {
		if recover() == nil {
			t.Fatal("second Join of app 1 did not panic")
		}
	}()
	l.Join(1, &tapp{})
}
