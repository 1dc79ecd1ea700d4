package fleet

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"psbox"
	"psbox/internal/faults"
	"psbox/internal/obs"
	"psbox/internal/obs/profile"
	"psbox/internal/sim"
	"psbox/internal/soak"
)

// TestProfileSeesPastTheTraceRing runs DefaultScenario's shard 0 for 40
// sim-s, long enough that the trace ring drops its oldest events, and
// collects every event between 100 ms steps so the collection misses
// none. The shard's profile must equal, bit for bit, a fold of each
// component rail over the collected spans: attribution must not depend
// on how far back the ring reaches.
func TestProfileSeesPastTheTraceRing(t *testing.T) {
	if raceEnabled {
		t.Skip("40 sim-s under the race detector take minutes")
	}
	const horizon = 40 * sim.Second
	sys := DefaultScenario(0, ShardSeed(42, 0), horizon)
	var collected []obs.Event
	for sys.Now() < sim.Time(horizon) {
		sys.Run(100 * sim.Millisecond)
		for _, ev := range sys.Trace.Events() {
			if n := uint64(len(collected)); ev.Seq > n {
				if ev.Seq != n+1 {
					t.Fatalf("at %v: the ring dropped events %d–%d before they were collected", sys.Now(), n+1, ev.Seq-1)
				}
				collected = append(collected, ev)
			}
		}
	}
	if sys.Trace.Dropped() == 0 {
		t.Fatalf("the ring dropped nothing in %d events: the horizon no longer reaches past it", len(collected))
	}

	ref := profile.New()
	ref.Enable()
	now := sys.Now()
	ownerName := func(id int) string {
		if id == 0 {
			return "kernel"
		}
		if name := sys.Trace.OwnerName(id); name != "" {
			return name
		}
		return fmt.Sprintf("app%d", id)
	}
	for _, rail := range sys.Meter.Rails() {
		if rail == "battery" {
			continue
		}
		spans := obs.IntervalsFromEvents(collected, rail)
		comp := ""
		if i := slices.IndexFunc(collected, func(ev obs.Event) bool { return ev.Type == obs.TypeSpan && ev.Rail == rail }); i >= 0 {
			comp = collected[i].Cat
		}
		ref.FoldRail(sys.Meter.Rail(rail), comp, 0, now, sys.Meter.Period(), spans,
			sys.Meter.Dropouts(rail, 0, now), ownerName)
	}

	rep := Summarize(sys)
	if want := ref.Entries(); !slices.Equal(rep.Profile, want) {
		t.Errorf("profile after %d dropped events:\n%v\nwant the fold over every span:\n%v",
			sys.Trace.Dropped(), rep.Profile, want)
	}
	if rep.ProfileWindows != ref.Windows() || rep.ProfileDegraded != ref.Degraded() {
		t.Errorf("profile folded %d windows, %d degraded; want %d and %d",
			rep.ProfileWindows, rep.ProfileDegraded, ref.Windows(), ref.Degraded())
	}
}

// TestProfilingNeedsNoTracing builds DefaultScenario's system with the
// trace bus left off and requires the profile and every rail's blame
// timeline to equal the traced build's: attribution reads the occupancy
// records, never the trace.
func TestProfilingNeedsNoTracing(t *testing.T) {
	const horizon = 250 * sim.Millisecond
	for shard := 0; shard < 4; shard++ {
		seed := ShardSeed(1, shard)
		traced := DefaultScenario(shard, seed, horizon)
		// DefaultScenario's steps, minus EnableTracing.
		untraced := psbox.NewMobile(seed)
		untraced.EnableProfiling()
		untraced.EnableAccelWatchdogs()
		soak.Mix(untraced)
		untraced.Faults.Randomize(faults.Campaign{
			Horizon:       horizon,
			AccelHangs:    1,
			NICFlaps:      1,
			DVFSStalls:    1,
			MeterDropouts: 2,
		})
		untraced.SetAuditEvery(horizon / 10)

		traced.Run(horizon)
		untraced.Run(horizon)
		want, got := Summarize(traced), Summarize(untraced)
		if untraced.Trace.Total() != 0 {
			t.Fatalf("shard %d: the untraced build emitted %d events", shard, untraced.Trace.Total())
		}
		if !slices.Equal(got.Profile, want.Profile) {
			t.Errorf("shard %d: untraced profile\n%v\ntraced\n%v", shard, got.Profile, want.Profile)
		}
		if got.ProfileWindows != want.ProfileWindows || got.ProfileDegraded != want.ProfileDegraded {
			t.Errorf("shard %d: untraced profile folded %d windows, %d degraded; traced %d and %d",
				shard, got.ProfileWindows, got.ProfileDegraded, want.ProfileWindows, want.ProfileDegraded)
		}
		for _, rail := range traced.Meter.Rails() {
			if !reflect.DeepEqual(untraced.Blame(rail, 0, untraced.Now()), traced.Blame(rail, 0, traced.Now())) {
				t.Errorf("shard %d: the %s blame timeline differs without tracing", shard, rail)
			}
		}
	}
}
