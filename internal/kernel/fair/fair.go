// Package fair is the scheduling-credit ledger behind both temporal-balloon
// drivers of §4.2, the accelerator driver (accel) and the packet scheduler
// (netsched). Apps are multiplexed over a device by credit: every app
// accrues it in the device's own currency (slot-seconds of accelerator
// occupancy, bytes of NIC airtime), the device serves the app with the
// least, and a sandbox's temporal balloon opens only when its
// balloon-inclusive credit is minimal. Each driver keeps what is
// device-specific — currency, balloon phases, billing, device state — and
// hands the ledger its two demand predicates.
package fair

import (
	"cmp"
	"fmt"
	"slices"

	"psbox/internal/sim"
	"psbox/internal/snapshot"
)

// Callbacks connect a balloon driver to the kernel and the psbox layer. All
// may be nil.
type Callbacks struct {
	// BacklogChange fires whenever an app's backlog on the device (pending
	// plus in-flight commands, or unsent bytes) may have shrunk; the kernel
	// re-checks tasks waiting on the device.
	BacklogChange func(appID int)
	// BoxResident fires when a sandbox's exclusive service span begins or
	// ends; the psbox virtual meter reads the device rail only inside it.
	BoxResident func(appID int, resident bool)
	// Usage reports one command's execution span or one frame's airtime
	// for accounting (the baseline comparator consumes these).
	Usage func(owner int, start, end sim.Time)
}

// App is one app's entry in a device's ledger. A driver's per-app state
// embeds it.
type App struct {
	ID     int
	Credit float64 // device usage charged so far, in the driver's currency
	Boxed  bool    // enclosed in a sandbox on this device
}

// Snapshot encodes the ledger fields: ID, credit, boxed. A driver's
// per-app Snapshot encodes them first, then its device fields.
func (a *App) Snapshot(enc *snapshot.Encoder) {
	enc.I64(int64(a.ID))
	enc.F64(a.Credit)
	enc.Bool(a.Boxed)
}

func (a *App) entry() *App { return a }

// Member is a driver's per-app state: a pointer to a struct embedding App.
type Member interface {
	entry() *App
}

// Ledger holds one device's apps in ascending ID order and the newcomer
// credit floor. Every walk visits the apps in that order, so picks break
// ties by ID without sorting or allocating.
type Ledger[S Member] struct {
	apps  []S
	floor float64

	// demand reports whether an app competes for the device at all (work
	// pending or in service); ready whether it has work the driver could
	// dispatch now.
	demand, ready func(S) bool
}

// NewLedger builds an empty ledger over a driver's demand predicates.
func NewLedger[S Member](demand, ready func(S) bool) Ledger[S] {
	return Ledger[S]{demand: demand, ready: ready}
}

// Apps returns the apps in ascending ID order; the slice is the ledger's
// own.
func (l *Ledger[S]) Apps() []S { return l.apps }

// Floor reports the newcomer credit floor.
func (l *Ledger[S]) Floor() float64 { return l.floor }

func (l *Ledger[S]) search(id int) (int, bool) {
	return slices.BinarySearchFunc(l.apps, id, func(s S, id int) int { return cmp.Compare(s.entry().ID, id) })
}

// Get returns the app with the given ID; ok=false if it never joined.
func (l *Ledger[S]) Get(id int) (s S, ok bool) {
	if i, found := l.search(id); found {
		return l.apps[i], true
	}
	return s, false
}

// Join enters s as app id, with credit at the newcomer floor.
func (l *Ledger[S]) Join(id int, s S) {
	i, found := l.search(id)
	if found {
		panic(fmt.Sprintf("fair: app %d joined twice", id))
	}
	e := s.entry()
	e.ID, e.Credit = id, l.floor
	l.apps = slices.Insert(l.apps, i, s)
}

// Wake lifts an app returning from idle to the newcomer floor: no credit
// hoarding (cf. CFS min_vruntime).
func (l *Ledger[S]) Wake(s S) {
	if e := s.entry(); e.Credit < l.floor {
		e.Credit = l.floor
	}
}

// Refresh advances the newcomer floor to the minimum credit of unboxed
// apps with demand; it never lowers it. Boxed apps are excluded: their
// credit is inflated by balloon billing, and letting it drag the floor up
// would catapult returning apps past them — erasing the very charge that
// confines the sandbox's cost.
func (l *Ledger[S]) Refresh() {
	min, found := 0.0, false
	for _, s := range l.apps {
		e := s.entry()
		if e.Boxed || !l.demand(s) {
			continue
		}
		if !found || e.Credit < min {
			min, found = e.Credit, true
		}
	}
	if found && min > l.floor {
		l.floor = min
	}
}

// Pick returns the minimum-credit ready app among the boxed or the
// unboxed ones, the lowest ID on ties; the zero S when none is ready.
func (l *Ledger[S]) Pick(boxed bool) S {
	var best S
	var min float64
	found := false
	for _, s := range l.apps {
		e := s.entry()
		if e.Boxed != boxed || !l.ready(s) {
			continue
		}
		if !found || e.Credit < min {
			best, min, found = s, e.Credit, true
		}
	}
	return best
}

// MinOther reports the minimum credit among apps with demand other than
// box, other boxed apps included; ok=false when none compete.
func (l *Ledger[S]) MinOther(box S) (min float64, ok bool) {
	b := box.entry()
	for _, s := range l.apps {
		e := s.entry()
		if e == b || !l.demand(s) {
			continue
		}
		if !ok || e.Credit < min {
			min, ok = e.Credit, true
		}
	}
	return min, ok
}

// Deserves reports whether box's credit is at most that of every unboxed
// app, demand or not.
func (l *Ledger[S]) Deserves(box S) bool {
	b := box.entry()
	for _, s := range l.apps {
		if e := s.entry(); e != b && !e.Boxed && b.Credit > e.Credit {
			return false
		}
	}
	return true
}
