package profile

import (
	"strings"
	"testing"

	"psbox/internal/hw/power"
	"psbox/internal/obs"
	"psbox/internal/sim"
	"psbox/internal/snapshot"
)

const ms = sim.Millisecond

func name(owner int) string {
	if owner == 0 {
		return "kernel"
	}
	return map[int]string{1: "vision", 2: "maps"}[owner]
}

// testFold runs one canonical fold: a 10ms window at 2W with vision
// running sched for the first half, maps running accel for the last
// quarter, and the rest uncovered.
func testFold(p *Profiler) {
	samples := []power.Sample{{T: 0, W: 2.0}}
	events := []obs.Event{
		{Type: obs.TypeSpan, T: 0, End: sim.Time(5 * ms), Cat: obs.CatSched, Owner: 1, Rail: "cpu"},
		{Type: obs.TypeSpan, T: sim.Time(7500 * sim.Microsecond), End: sim.Time(10 * ms),
			Cat: obs.CatAccel, Owner: 2, Rail: "cpu"},
		// A different rail's span must be ignored by a cpu fold.
		{Type: obs.TypeSpan, T: 0, End: sim.Time(10 * ms), Cat: obs.CatAccel, Owner: 2, Rail: "gpu"},
	}
	p.FoldRail("cpu", samples, 10*ms, events, nil, name)
}

func TestFoldRailSplitsEnergy(t *testing.T) {
	p := New()
	p.Enable()
	testFold(p)

	// 2W over 10ms = 0.02 J. Coverage is 7.5ms of 10ms, so the active
	// fraction is 0.75; vision holds 5ms of 7.5ms occupancy, maps 2.5ms.
	want := map[Key]float64{
		{App: "vision", Comp: obs.CatSched, Rail: "cpu"}: 0.02 * 0.75 * (5.0 / 7.5),
		{App: "maps", Comp: obs.CatAccel, Rail: "cpu"}:   0.02 * 0.75 * (2.5 / 7.5),
		{App: IdleApp, Comp: IdleComp, Rail: "cpu"}:      0.02 * 0.25,
	}
	es := p.Entries()
	if len(es) != len(want) {
		t.Fatalf("entries = %+v, want %d stacks", es, len(want))
	}
	var sum float64
	for _, e := range es {
		w := want[Key{App: e.App, Comp: e.Comp, Rail: e.Rail}]
		if diff := e.J - w; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("%s;%s;%s = %v, want %v", e.App, e.Comp, e.Rail, e.J, w)
		}
		sum += e.J
	}
	if diff := sum - 0.02; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("profile total %v J, want the window's full 0.02 J", sum)
	}
	if p.Windows() != 1 || p.Degraded() != 0 {
		t.Errorf("windows=%d degraded=%d, want 1/0", p.Windows(), p.Degraded())
	}
}

// A disabled profiler folds nothing — the free-when-off contract.
func TestFoldDisabledIsNoOp(t *testing.T) {
	p := New()
	testFold(p)
	if len(p.Entries()) != 0 || p.Windows() != 0 {
		t.Fatalf("disabled profiler accumulated state: %+v", p.Entries())
	}
	if p.Enabled() {
		t.Fatal("never-enabled profiler reports enabled")
	}
}

func TestFoldCountsDegradedWindows(t *testing.T) {
	p := New()
	p.Enable()
	samples := []power.Sample{{T: 0, W: 1}, {T: sim.Time(10 * ms), W: 1}}
	gaps := []obs.Gap{{From: sim.Time(12 * ms), To: sim.Time(15 * ms)}}
	p.FoldRail("cpu", samples, 10*ms, nil, gaps, name)
	if p.Windows() != 2 || p.Degraded() != 1 {
		t.Fatalf("windows=%d degraded=%d, want 2/1", p.Windows(), p.Degraded())
	}
}

func TestAdvanceWatermarkMonotone(t *testing.T) {
	p := New()
	p.Advance(sim.Time(50 * ms))
	p.Advance(sim.Time(20 * ms))
	if got := p.Through(); got != sim.Time(50*ms) {
		t.Fatalf("watermark = %v, want 50ms (never moves back)", got)
	}
}

func TestMergeEntriesSumsAndSorts(t *testing.T) {
	a := []Entry{
		{App: "vision", Comp: "sched", Rail: "cpu", J: 0.5},
		{App: "idle", Comp: "floor", Rail: "cpu", J: 0.1},
	}
	b := []Entry{
		{App: "vision", Comp: "sched", Rail: "cpu", J: 0.25},
		{App: "maps", Comp: "net", Rail: "wifi", J: 0.05},
	}
	m := MergeEntries(a, b)
	want := []Entry{
		{App: "idle", Comp: "floor", Rail: "cpu", J: 0.1},
		{App: "maps", Comp: "net", Rail: "wifi", J: 0.05},
		{App: "vision", Comp: "sched", Rail: "cpu", J: 0.75},
	}
	if len(m) != len(want) {
		t.Fatalf("merged = %+v", m)
	}
	for i := range want {
		if m[i] != want[i] {
			t.Errorf("merged[%d] = %+v, want %+v", i, m[i], want[i])
		}
	}
}

func TestWriteFoldedFormat(t *testing.T) {
	entries := []Entry{
		{App: "idle", Comp: "floor", Rail: "cpu", J: 0.005},
		{App: "maps", Comp: "accel", Rail: "gpu", J: 1e-9}, // rounds to 0 µJ: skipped
		{App: "vision", Comp: "sched", Rail: "cpu", J: 0.0100004},
	}
	var sb strings.Builder
	if err := WriteFolded(&sb, entries); err != nil {
		t.Fatal(err)
	}
	want := "idle;floor;cpu 5000\nvision;sched;cpu 10000\n"
	if sb.String() != want {
		t.Fatalf("folded stacks:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestWriteTopRanksAndTiesDeterministically(t *testing.T) {
	entries := []Entry{
		{App: "b", Comp: "x", Rail: "cpu", J: 0.5},
		{App: "a", Comp: "x", Rail: "cpu", J: 0.5}, // tie: "a" must rank before "b"
		{App: "c", Comp: "y", Rail: "gpu", J: 2.0},
	}
	var sb strings.Builder
	if err := WriteTop(&sb, entries, 2); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("top table:\n%s", sb.String())
	}
	if !strings.Contains(lines[0], "top-2 of 3 stacks, total 3.000000000 J") {
		t.Errorf("header: %s", lines[0])
	}
	if !strings.Contains(lines[1], "c") || !strings.Contains(lines[1], "66.67%") {
		t.Errorf("rank 1: %s", lines[1])
	}
	if fields := strings.Fields(lines[2]); fields[1] != "a" {
		t.Errorf("rank 2 tie should be 'a' first: %s", lines[2])
	}
}

// Two identical fold sequences must produce byte-identical snapshots, and
// Restore against the twin verifies clean.
func TestSnapshotRoundTrip(t *testing.T) {
	mk := func() *Profiler {
		p := New()
		p.Enable()
		testFold(p)
		p.Advance(sim.Time(10 * ms))
		return p
	}
	a, b := mk(), mk()
	ea, eb := snapshot.NewEncoder(), snapshot.NewEncoder()
	a.Snapshot(ea)
	b.Snapshot(eb)
	if string(ea.Data()) != string(eb.Data()) {
		t.Fatal("identical folds produced different snapshot bytes")
	}
	ra := snapshot.NewRegistry()
	ra.Add("obs/profile", a.Snapshot)
	ckpt := ra.Checkpoint()
	rb := snapshot.NewRegistry()
	rb.Add("obs/profile", b.Snapshot)
	if err := rb.Restore(ckpt); err != nil {
		t.Fatalf("twin restore: %v", err)
	}
	// A diverged twin must be rejected.
	b.weights[Key{App: "vision", Comp: "sched", Rail: "cpu"}] += 1e-6
	if err := rb.Restore(ckpt); err == nil {
		t.Fatal("diverged profiler passed snapshot verification")
	}
}
