//psbox:allow-noconcurrency tests exercise the host-side supervisor, which is concurrent by design
//psbox:allow-nowallclock tests tune the watchdog's host-side deadlines to keep hang scenarios fast

package fleet

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"psbox/internal/sim"
)

// testConfig is a small, fast fleet: 4 shards, 50 ms horizon, 10 quanta,
// checkpoints every 2 quanta, snappy watchdog tuning.
func testConfig(shards int) Config {
	return Config{
		Shards:          shards,
		Horizon:         50 * sim.Millisecond,
		Seed:            42,
		Quanta:          10,
		CheckpointEvery: 2,
		MaxRetries:      2,
		BackoffBase:     time.Millisecond,
		BackoffCap:      2 * time.Millisecond,
		StallTimeout:    150 * time.Millisecond,
	}
}

// chaosAllKinds afflicts three of four shards, one per taxonomy kind:
// shard 1 killed once (after its first checkpoint, so it resumes), shard
// 2 hung once, shard 3 killed with checkpoint corruption.
func chaosAllKinds() *Plan {
	return PlanFromInjections(1, map[int][]Injection{
		1: {{Attempt: 0, Kind: FailPanic, Quantum: 7}},
		2: {{Attempt: 0, Kind: FailHang, Quantum: 5}},
		3: {{Attempt: 0, Kind: FailPanic, Quantum: 6, Corrupt: true}},
	})
}

func TestShardSeedStable(t *testing.T) {
	// The shard seeds are part of the merged report's wire stability;
	// changing the mixing function invalidates every fleet golden.
	want := []uint64{13679457532755275413, 2949826092126892291, 5139283748462763858}
	for i, w := range want {
		if got := ShardSeed(42, i); got != w {
			t.Errorf("ShardSeed(42, %d) = %d, want %d", i, got, w)
		}
	}
	if ShardSeed(42, 0) == ShardSeed(43, 0) {
		t.Error("different fleet seeds produced the same shard seed")
	}
}

func TestValidation(t *testing.T) {
	if _, err := Run(Config{Shards: 0, Horizon: sim.Millisecond}); err == nil {
		t.Error("Run accepted zero shards")
	}
	if _, err := Run(Config{Shards: 1, Horizon: 0}); err == nil {
		t.Error("Run accepted a zero horizon")
	}
	if _, err := Run(Config{Shards: 1, Horizon: sim.Millisecond, Quanta: 4, CheckpointEvery: 9}); err == nil {
		t.Error("Run accepted CheckpointEvery > Quanta")
	}
	if _, err := Run(Config{Shards: 1, Horizon: 19, Quanta: 20}); err == nil {
		t.Error("Run accepted a horizon shorter than its quanta (zero-length quantum)")
	}
}

// TestDeterministicAcrossWorkers is the acceptance core: the same chaos
// fleet must render byte-identically at one worker and at several.
func TestDeterministicAcrossWorkers(t *testing.T) {
	var reports []string
	for _, workers := range []int{1, 4} {
		cfg := testConfig(4)
		cfg.Workers = workers
		cfg.Chaos = chaosAllKinds()
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		reports = append(reports, res.Format())
	}
	if reports[0] != reports[1] {
		t.Errorf("merged report differs between workers=1 and workers=4:\n--- w1 ---\n%s\n--- w4 ---\n%s",
			reports[0], reports[1])
	}
}

// TestChaosRecoveryMatchesClean checks the resume-not-restart contract
// end to end: when every afflicted shard recovers within its retry
// budget, the chaos fleet's rollup is bit-identical to the clean fleet's
// — retries and resumes leave no residue in the merged accounting.
func TestChaosRecoveryMatchesClean(t *testing.T) {
	clean, err := Run(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(4)
	cfg.Chaos = chaosAllKinds()
	chaos, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range chaos.Shards {
		if chaos.Shards[i].Quarantined {
			t.Fatalf("shard %d quarantined; plan meant every shard to recover: %v",
				i, chaos.Shards[i].Failures)
		}
		if !reflect.DeepEqual(clean.Shards[i].Report, chaos.Shards[i].Report) {
			t.Errorf("shard %d report differs between clean and recovered-chaos runs", i)
		}
	}
	if !reflect.DeepEqual(clean.Merge(), chaos.Merge()) {
		t.Error("merged rollup differs between clean and recovered-chaos fleets")
	}
}

// TestKillResumesFromCheckpoint: a shard killed after its first
// checkpoint must retry, resume from that checkpoint (not zero), and
// report a recovered panic.
func TestKillResumesFromCheckpoint(t *testing.T) {
	cfg := testConfig(2)
	cfg.Chaos = PlanFromInjections(1, map[int][]Injection{
		1: {{Attempt: 0, Kind: FailPanic, Quantum: 7}},
	})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := res.Shards[1]
	if sh.Attempts != 2 || sh.Quarantined || sh.Report == nil {
		t.Fatalf("shard 1: attempts=%d quarantined=%v report=%v", sh.Attempts, sh.Quarantined, sh.Report != nil)
	}
	if len(sh.Failures) != 1 || sh.Failures[0].Kind != FailPanic {
		t.Fatalf("shard 1 failures = %v, want one recovered panic", sh.Failures)
	}
	// Kill before quantum 7; checkpoints every 2 quanta of 5 ms → the
	// newest checkpoint at the kill is quantum 6 = 30 ms.
	if want := sim.Time(30 * int64(sim.Millisecond)); sh.ResumedFrom != want {
		t.Errorf("resumed from %v, want %v", sh.ResumedFrom, want)
	}
	if !strings.Contains(sh.Failures[0].Msg, "chaos: shard 1 attempt 0 killed") {
		t.Errorf("panic message not propagated: %q", sh.Failures[0].Msg)
	}
}

// TestHangWatchdog: a chaos hang must be cancelled by the watchdog at a
// deterministic sim-time progress point and retried to success.
func TestHangWatchdog(t *testing.T) {
	cfg := testConfig(2)
	cfg.Chaos = PlanFromInjections(1, map[int][]Injection{
		0: {{Attempt: 0, Kind: FailHang, Quantum: 5}},
	})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := res.Shards[0]
	if sh.Quarantined || sh.Report == nil || len(sh.Failures) != 1 {
		t.Fatalf("shard 0: quarantined=%v failures=%v", sh.Quarantined, sh.Failures)
	}
	f := sh.Failures[0]
	if f.Kind != FailHang {
		t.Fatalf("failure kind = %s, want hang", f.Kind)
	}
	// Hang before quantum 5 → the shard last heartbeat at quantum 4 of a
	// 5 ms quantum = 20 ms. The watchdog's record must carry that sim
	// progress point, never a wall-clock value.
	if want := sim.Time(20 * int64(sim.Millisecond)); f.At != want {
		t.Errorf("hang recorded at %v, want %v", f.At, want)
	}
}

// TestCorruptCheckpointArc: a kill with checkpoint corruption must
// produce the full degradation arc — panic, then a typed
// checkpoint-corrupt failure on the resume attempt, then success from
// zero — and still converge to the clean report.
func TestCorruptCheckpointArc(t *testing.T) {
	cfg := testConfig(2)
	cfg.Chaos = PlanFromInjections(1, map[int][]Injection{
		1: {{Attempt: 0, Kind: FailPanic, Quantum: 7, Corrupt: true}},
	})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := res.Shards[1]
	if sh.Quarantined || sh.Report == nil {
		t.Fatalf("shard 1 did not recover: %v", sh.Failures)
	}
	if sh.Attempts != 3 || len(sh.Failures) != 2 {
		t.Fatalf("attempts=%d failures=%v, want 3 attempts with panic + checkpoint-corrupt", sh.Attempts, sh.Failures)
	}
	if sh.Failures[0].Kind != FailPanic || sh.Failures[1].Kind != FailCheckpointCorrupt {
		t.Fatalf("failure kinds = %s, %s; want panic then checkpoint-corrupt", sh.Failures[0].Kind, sh.Failures[1].Kind)
	}
	if sh.ResumedFrom != 0 {
		t.Errorf("final attempt resumed from %v, want a from-zero restart after discarding the corrupt checkpoint", sh.ResumedFrom)
	}
	clean, err := Run(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean.Shards[1].Report, sh.Report) {
		t.Error("report after the corrupt-checkpoint arc differs from the clean run's")
	}
}

// TestQuarantineCoverage: a shard that fails every attempt is
// quarantined, excluded from the rollup, and accounted as reduced
// coverage — the survivors' numbers must match a clean fleet's minus
// exactly that shard.
func TestQuarantineCoverage(t *testing.T) {
	cfg := testConfig(3)
	cfg.Chaos = PlanFromInjections(1, map[int][]Injection{
		2: {
			{Attempt: 0, Kind: FailPanic, Quantum: 3},
			{Attempt: 1, Kind: FailPanic, Quantum: 3},
			{Attempt: 2, Kind: FailPanic, Quantum: 3},
		},
	})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Shards[2].Quarantined || res.Shards[2].Report != nil {
		t.Fatalf("shard 2 should be quarantined without a report: %+v", res.Shards[2])
	}
	m := res.Merge()
	if m.Completed != 2 || len(m.Quarantined) != 1 || m.Quarantined[0] != 2 {
		t.Fatalf("merge: completed=%d quarantined=%v", m.Completed, m.Quarantined)
	}
	if want := 2.0 / 3.0; m.Coverage != want {
		t.Errorf("coverage = %v, want %v", m.Coverage, want)
	}
	clean, err := Run(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	want := clean.Shards[0].Report.BatteryJ + clean.Shards[1].Report.BatteryJ
	if m.BatteryJ != want {
		t.Errorf("rollup battery = %v J, want the two survivors' %v J (no renormalization)", m.BatteryJ, want)
	}
	if !strings.Contains(res.Format(), "quarantined: [2]") {
		t.Error("merged report does not list the quarantined shard")
	}
}

// TestRetriesDisabledDegrades: with retry off, every afflicted shard
// quarantines immediately, and the fleet still completes and reports
// deterministically.
func TestRetriesDisabledDegrades(t *testing.T) {
	run := func() *Result {
		cfg := testConfig(4)
		cfg.MaxRetries = 0
		cfg.Workers = 3
		cfg.Chaos = chaosAllKinds()
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	m := res.Merge()
	if want := []int{1, 2, 3}; !reflect.DeepEqual(m.Quarantined, want) {
		t.Fatalf("quarantined = %v, want %v", m.Quarantined, want)
	}
	for _, sh := range res.Shards {
		if sh.Attempts != 1 {
			t.Errorf("shard %d ran %d attempts with retries disabled", sh.Shard, sh.Attempts)
		}
	}
	if res.Format() != run().Format() {
		t.Error("degraded fleet report is not reproducible")
	}
}

// TestNewPlanDeterministic: the drawn chaos schedule is a pure function
// of its seed, covers all three taxonomy kinds at sufficient fleet size,
// and places corrupt kills after the first checkpoint.
func TestNewPlanDeterministic(t *testing.T) {
	a := NewPlan(7, 10, 20, 5, 3)
	b := NewPlan(7, 10, 20, 5, 3)
	if a.Describe() != b.Describe() {
		t.Error("same seed drew different chaos plans")
	}
	if NewPlan(8, 10, 20, 5, 3).Describe() == a.Describe() {
		t.Error("different seeds drew identical chaos plans")
	}
	kinds := map[string]bool{}
	corrupt := 0
	for shard, injs := range a.byShard {
		for _, inj := range injs {
			kinds[chaosVerb(inj.Kind)] = true
			if inj.Corrupt {
				corrupt++
				if inj.Quantum <= 5 {
					t.Errorf("shard %d corrupt kill at quantum %d, before the first checkpoint (q5)", shard, inj.Quantum)
				}
			}
		}
	}
	if !kinds["kill"] || !kinds["hang"] || corrupt == 0 {
		t.Errorf("plan misses taxonomy coverage: kinds=%v corrupt=%d\n%s", kinds, corrupt, a.Describe())
	}
	if p := (*Plan)(nil); p.injectionFor(0, 0) != nil || p.Describe() != "chaos: off\n" {
		t.Error("nil plan must inject nothing and describe as off")
	}
}
