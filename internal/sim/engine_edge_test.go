package sim

import (
	"container/heap"
	"testing"
)

// TestRunMonotonicityPanic checks that Run refuses an event stamped before
// the current clock instead of silently rewinding time.
func TestRunMonotonicityPanic(t *testing.T) {
	e := NewEngine()
	e.At(10, func(Time) {})
	e.Run(20) // now = 20
	// Corrupt the queue the only way possible: bypass At's past-check and
	// push a stale item directly, as a buggy model mutating internals would.
	e.nextSeq++
	heap.Push(&e.queue, &item{at: 5, seq: e.nextSeq, fn: func(Time) {}})
	defer func() {
		if recover() == nil {
			t.Fatal("Run executed an event from the past without panicking")
		}
	}()
	e.Run(30)
}

func TestEngineCancelFromInsideEvent(t *testing.T) {
	e := NewEngine()
	var h2 Handle
	fired2 := false
	// Both at t=10: the first handler revokes the second before it fires.
	e.At(10, func(Time) {
		if !e.Cancel(h2) {
			t.Fatal("Cancel of a pending sibling reported not pending")
		}
	})
	h2 = e.At(10, func(Time) { fired2 = true })
	e.Run(100)
	if fired2 {
		t.Fatal("event cancelled from inside a handler still fired")
	}
}

func TestEngineCancelSelfWhileFiring(t *testing.T) {
	e := NewEngine()
	var self Handle
	self = e.At(10, func(Time) {
		// The firing event is no longer pending; cancelling it is a no-op.
		if e.Cancel(self) {
			t.Fatal("Cancel of the currently-firing event reported pending")
		}
	})
	e.Run(100)
}

func TestEveryStopTwiceFromInsideTick(t *testing.T) {
	e := NewEngine()
	n := 0
	var stop func()
	stop = e.Every(10, func(Time) {
		n++
		if n == 2 {
			stop()
			stop() // second call from inside the same tick must be a no-op
		}
	})
	e.Run(200)
	if n != 2 {
		t.Fatalf("fired %d times, want 2", n)
	}
	stop() // and again after the run, for good measure
	e.Run(400)
	if n != 2 {
		t.Fatalf("fired after stop: %d", n)
	}
}
