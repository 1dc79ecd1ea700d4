package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0)
	t1 := t0.Add(3 * Millisecond)
	if t1 != Time(3_000_000) {
		t.Fatalf("Add: got %d", int64(t1))
	}
	if d := t1.Sub(t0); d != 3*Millisecond {
		t.Fatalf("Sub: got %v", d)
	}
	if s := t1.Seconds(); s != 0.003 {
		t.Fatalf("Seconds: got %v", s)
	}
	if got := FromHost(2 * time.Second); got != 2*Second {
		t.Fatalf("FromHost: got %v", got)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{1500 * Millisecond, "1.500s"},
		{2 * Millisecond, "2.000ms"},
		{15 * Microsecond, "15.000µs"},
		{42, "42ns"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d: got %q want %q", int64(c.d), got, c.want)
		}
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func(Time) { order = append(order, 3) })
	e.At(10, func(Time) { order = append(order, 1) })
	e.At(20, func(Time) { order = append(order, 2) })
	e.Run(100)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 100 {
		t.Fatalf("clock should land on horizon, got %v", e.Now())
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func(Time) { order = append(order, i) })
	}
	e.Run(5)
	for i, v := range order {
		if v != i {
			t.Fatalf("not FIFO at same instant: %v", order)
		}
	}
}

func TestEngineHorizonStopsEarly(t *testing.T) {
	e := NewEngine()
	fired := false
	e.At(50, func(Time) { fired = true })
	e.Run(49)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if e.Now() != 49 {
		t.Fatalf("now = %v", e.Now())
	}
	e.Run(50)
	if !fired {
		t.Fatal("event at horizon should fire")
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	h := e.At(10, func(Time) { fired = true })
	if !e.Cancel(h) {
		t.Fatal("Cancel reported not pending")
	}
	if e.Cancel(h) {
		t.Fatal("double Cancel should report false")
	}
	e.Run(100)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Cancel(Handle{}) {
		t.Fatal("zero handle should not cancel")
	}
}

func TestEngineCancelAfterFire(t *testing.T) {
	e := NewEngine()
	h := e.At(1, func(Time) {})
	e.Run(2)
	if e.Cancel(h) {
		t.Fatal("Cancel after fire should report false")
	}
}

// TestHandlePending pins the handle contract: a handle is pending from At
// or After until its event fires or is cancelled, Seq is the sequence
// number only while pending, and Cancel of anything not pending is a
// no-op that reports false.
func TestHandlePending(t *testing.T) {
	e := NewEngine()
	var zero Handle
	if zero.Pending() || zero.Seq() != 0 {
		t.Fatal("zero Handle reports a pending event")
	}
	var self Handle
	self = e.At(10, func(Time) {
		if self.Pending() || self.Seq() != 0 {
			t.Error("handle still pending inside its own callback")
		}
	})
	later := e.After(20, func(Time) { t.Error("cancelled event fired") })
	if !self.Pending() || self.Seq() != 1 || !later.Pending() || later.Seq() != 2 {
		t.Fatalf("fresh handles: Pending %v/%v, Seq %d/%d", self.Pending(), later.Pending(), self.Seq(), later.Seq())
	}
	if !e.Cancel(later) {
		t.Fatal("Cancel of a pending event reported false")
	}
	if later.Pending() || later.Seq() != 0 {
		t.Fatal("cancelled handle still pending")
	}
	e.Run(100)
	if self.Pending() || self.Seq() != 0 {
		t.Fatal("fired handle still pending")
	}
	e.After(5, func(Time) {})
	for _, h := range []Handle{self, later, zero} {
		if e.Cancel(h) || e.Pending() != 1 {
			t.Fatalf("Cancel of a non-pending handle: Pending() = %d", e.Pending())
		}
	}
}

func TestEngineEventSchedulesEvent(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(10, func(now Time) {
		e.After(5, func(now2 Time) { at = now2 })
	})
	e.Run(100)
	if at != 15 {
		t.Fatalf("chained event at %v, want 15", at)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.Run(10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling into the past")
		}
	}()
	e.At(5, func(Time) {})
}

func TestEngineRunReentryPanics(t *testing.T) {
	e := NewEngine()
	var recovered bool
	e.At(1, func(Time) {
		defer func() { recovered = recover() != nil }()
		e.Run(10)
	})
	e.Run(10)
	if !recovered {
		t.Fatal("re-entrant Run should panic")
	}
}

func TestEnginePendingAndFired(t *testing.T) {
	e := NewEngine()
	e.At(1, func(Time) {})
	e.At(2, func(Time) {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d", e.Pending())
	}
	e.Run(10)
	if e.Pending() != 0 || e.Fired() != 2 {
		t.Fatalf("Pending=%d Fired=%d", e.Pending(), e.Fired())
	}
}

func TestEngineManyEventsStressOrdering(t *testing.T) {
	e := NewEngine()
	r := NewRand(7)
	const n = 5000
	var last Time = -1
	ok := true
	for i := 0; i < n; i++ {
		at := Time(r.Int63n(1_000_000))
		e.At(at, func(now Time) {
			if now < last {
				ok = false
			}
			last = now
		})
	}
	e.Run(1_000_000)
	if !ok {
		t.Fatal("events fired out of order")
	}
	if e.Fired() != n {
		t.Fatalf("fired %d of %d", e.Fired(), n)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := true
	a2 := NewRand(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should diverge")
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRandJitterBounds(t *testing.T) {
	r := NewRand(2)
	for i := 0; i < 1000; i++ {
		v := r.Jitter(1000, 0.2)
		if v < 800 || v > 1200 {
			t.Fatalf("Jitter out of bounds: %d", v)
		}
	}
	if r.Jitter(50, 0) != 50 {
		t.Fatal("zero-frac jitter must be identity")
	}
	if r.Jitter(1, 0.99) < 1 {
		t.Fatal("jitter must stay positive")
	}
}

func TestRandNormMoments(t *testing.T) {
	r := NewRand(3)
	const n = 20000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Norm(10, 2)
		sum += v
		sq += v * v
	}
	mean := sum / n
	varr := sq/n - mean*mean
	if mean < 9.9 || mean > 10.1 {
		t.Fatalf("mean = %v", mean)
	}
	if varr < 3.6 || varr > 4.4 {
		t.Fatalf("variance = %v", varr)
	}
}

func TestRandForkIndependence(t *testing.T) {
	r := NewRand(9)
	f := r.Fork()
	// Drawing from the fork must not perturb the parent's future stream
	// relative to a parent that forked but never used the fork.
	r2 := NewRand(9)
	_ = r2.Fork()
	for i := 0; i < 10; i++ {
		f.Uint64()
	}
	for i := 0; i < 10; i++ {
		if r.Uint64() != r2.Uint64() {
			t.Fatal("fork usage perturbed parent stream")
		}
	}
}

func TestQuickIntnAlwaysInRange(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		m := int(n%1000) + 1
		r := NewRand(seed)
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEngineMonotonicClock(t *testing.T) {
	f := func(seed uint64, raw []uint32) bool {
		e := NewEngine()
		last := Time(-1)
		mono := true
		for _, v := range raw {
			at := Time(v % 1_000_000)
			e.At(at, func(now Time) {
				if now < last {
					mono = false
				}
				last = now
			})
		}
		e.Run(1_000_000)
		return mono
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEvery(t *testing.T) {
	e := NewEngine()
	n := 0
	stop := e.Every(10, func(Time) { n++ })
	e.Run(55)
	if n != 5 {
		t.Fatalf("fired %d times, want 5", n)
	}
	stop()
	stop() // idempotent
	e.Run(200)
	if n != 5 {
		t.Fatalf("fired after stop: %d", n)
	}
}

func TestEveryStopFromInside(t *testing.T) {
	e := NewEngine()
	n := 0
	var stop func()
	stop = e.Every(10, func(Time) {
		n++
		if n == 3 {
			stop()
		}
	})
	e.Run(200)
	if n != 3 {
		t.Fatalf("fired %d times, want 3", n)
	}
}

func TestEveryValidation(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Every(0, func(Time) {})
}
