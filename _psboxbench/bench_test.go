package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"psbox/internal/experiments"
	"psbox/internal/fleet"
	"psbox/internal/sim"
)

// smokeShape is a short horizon of every workload.
var smokeShape = shape{
	floodWindows: 80,
	fleet:        fleetShape{shards: 3, horizon: 100 * sim.Millisecond, quanta: 10, ckptEvery: 5},
}

func TestFloodPlanIsPureFunctionOfSeed(t *testing.T) {
	a, b := floodPlan(7, 1000), floodPlan(7, 1000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different arrival plans")
	}
	if reflect.DeepEqual(a, floodPlan(8, 1000)) {
		t.Fatal("different seeds, identical arrival plans")
	}
	kinds := func(plan []arrival) map[string]int {
		m := map[string]int{}
		for i, x := range plan {
			m[x.kind]++
			if i > 0 && x.window < plan[i-1].window {
				t.Fatalf("plan not in launch order at %d", i)
			}
			if x.window >= 500 {
				t.Fatalf("%s arrives at window %d, after the first half", x.name, x.window)
			}
		}
		return m
	}
	if ka, kc := kinds(a), kinds(floodPlan(8, 1000)); !reflect.DeepEqual(ka, kc) {
		t.Fatalf("arrival mix depends on the seed: %v vs %v", ka, kc)
	}
}

func TestFleetChaosIsPureFunctionOfSeed(t *testing.T) {
	sh := benchShape.fleet
	a, b := fleetChaos(7, sh), fleetChaos(7, sh)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different chaos plans")
	}
	if reflect.DeepEqual(a, fleetChaos(9, sh)) {
		t.Fatal("different seeds, identical chaos plans")
	}
	corrupt := 0
	for shard, injs := range a {
		for _, inj := range injs {
			if inj.Kind != fleet.FailPanic {
				t.Errorf("shard %d: injection %s, want kills only", shard, inj.Kind)
			}
			if inj.Quantum <= sh.ckptEvery || inj.Quantum > sh.quanta {
				t.Errorf("shard %d: kill before quantum %d, want one after the first checkpoint", shard, inj.Quantum)
			}
			if inj.Corrupt {
				corrupt++
			}
		}
	}
	if len(a) != 3 || corrupt != 1 {
		t.Fatalf("%d afflicted shards, %d corrupt; want 3 and 1", len(a), corrupt)
	}
}

func TestFig6RowCheckRejectsDoctoredRow(t *testing.T) {
	good := fig6Cells{scope: "cpu", psbox: []float64{100, 102, 99}, baseline: []float64{100, 130, 80}}
	if !rowOK(good) {
		t.Fatal("a row inside the shape bounds was rejected")
	}
	for name, bad := range map[string]fig6Cells{
		"psbox drifts":      {psbox: []float64{100, 107, 99}, baseline: []float64{100, 130, 80}},
		"baseline too flat": {psbox: []float64{100, 102, 99}, baseline: []float64{100, 104, 97}},
		"baseline < 2x":     {psbox: []float64{100, 105, 99}, baseline: []float64{100, 109, 97}},
		"missing cell":      {psbox: []float64{100, 102}, baseline: []float64{100, 130, 80}},
	} {
		if rowOK(bad) {
			t.Errorf("%s: doctored row accepted", name)
		}
	}
}

func TestFloodReplayRejectsDoctoredCheckpoint(t *testing.T) {
	const windows = 40
	plan := floodPlan(3, windows)
	p := newPass(3, nil)
	sys, mgr := floodSystem(p.seed, plan, windows)
	next := launchDue(p, mgr, plan, 0, 0)
	for w := 0; w < 20; w++ {
		next = launchDue(p, mgr, plan, next, w)
		p.run(sys, floodWindow)
	}
	launchDue(p, mgr, plan, next, 20)
	ckpt := sys.Snapshot()
	if err := verifyReplay(p, plan, windows, 20, ckpt); err != nil {
		t.Fatalf("genuine checkpoint rejected: %v", err)
	}
	if err := verifyReplay(p, plan, windows, 19, ckpt); err == nil {
		t.Fatal("checkpoint verified against a replay one window short")
	}
	doctored := append([]byte(nil), ckpt...)
	doctored[len(doctored)/2] ^= 1
	if err := verifyReplay(p, plan, windows, 20, doctored); err == nil {
		t.Fatal("doctored checkpoint verified")
	}
}

func TestFleetCheckRejectsDoctoredReference(t *testing.T) {
	sh := smokeShape.fleet
	clean, err := fleetReference(5, sh)
	if err != nil {
		t.Fatal(err)
	}
	doctored := append([]*fleet.ShardReport(nil), clean...)
	r := *doctored[1]
	r.BatteryJ += 1e-9
	doctored[1] = &r
	p := newPass(5, nil)
	runFleet(p, sh, doctored)
	if p.failed != 1 || p.ops != sh.shards {
		t.Fatalf("failed %d of %d shards against a doctored reference, want 1 of %d: %v", p.failed, p.ops, sh.shards, p.notes)
	}
}

func TestDigestMismatchFailsThePass(t *testing.T) {
	a, b := newPass(1, nil), newPass(1, nil)
	a.ops, b.ops = 4, 4
	a.digest("x")
	b.digest("y")
	var out bytes.Buffer
	rep := &report{passes: []*pass{a, b}}
	rep.print(&out, &bench{workload: "fig6-grid", seed: 1})
	res := lastJSON(t, out.String())
	if res.Correct || res.Attempted != 8 || res.Failed != 4 {
		t.Fatalf("got correct=%v attempted=%d failed=%d, want false 8 4", res.Correct, res.Attempted, res.Failed)
	}
}

// TestFig6MatchesExperiment checks that the grid recomposed from public
// calls, in the order seed 5 draws, reproduces internal/experiments.Fig6
// cell for cell.
func TestFig6MatchesExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Fig. 6 grid twice")
	}
	p := newPass(5, nil)
	runFig6(p)
	if p.failed != 0 || p.ops != 24 {
		t.Fatalf("fig6-grid: %d of %d runs failed: %v", p.failed, p.ops, p.notes)
	}
	want := experiments.Fig6(fig6Seed)
	q := newPass(1, nil)
	var res fig6Result
	for _, row := range want.Rows {
		c := fig6Cells{scope: row.Scope, psbox: []float64{row.PSBoxAloneMJ}, baseline: []float64{row.BaselineAloneMJ}}
		for i := range row.PSBox {
			c.psbox = append(c.psbox, row.PSBox[i].MJ)
			c.baseline = append(c.baseline, row.Baseline[i].MJ)
		}
		res.rows = append(res.rows, c)
	}
	q.digest(res.digest())
	if p.simDigest() != q.simDigest() {
		t.Fatalf("recomposed grid differs from experiments.Fig6")
	}
}

func TestSmokePassesSucceed(t *testing.T) {
	for _, w := range workloads {
		if w == "fig6-grid" && testing.Short() {
			continue
		}
		t.Run(w, func(t *testing.T) {
			b := &bench{workload: w, seed: 11, shape: smokeShape}
			if err := b.prepare(); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			tr := newTracer()
			rep := b.traced(time.Time{}, tr) // one untraced and one traced pass
			rep.print(&out, b)
			res := lastJSON(t, out.String())
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("smoke pass: correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
			}
			if share := res.Metrics["trace.layer_share"].Value; share < 0.9 {
				t.Errorf("layers cover %.3f of the traced pass, want >= 0.9", share)
			}
			for _, s := range tr.spans {
				if s.End < s.Start {
					t.Errorf("span %s never ended", s.Name)
				}
			}
		})
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a.x", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "a.y", Start: 30, End: 60}, // overlaps a.x
		{ID: 4, Parent: 3, Name: "b.z", Start: 35, End: 45},
	}
	got := selfTimes(spans)
	want := []float64{50e-9, 30e-9, 20e-9, 10e-9}
	for i := range want {
		if diff := got[i] - want[i]; diff > 1e-15 || diff < -1e-15 {
			t.Errorf("%s self = %g, want %g", spans[i].Name, got[i], want[i])
		}
	}
}

type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]jsonMetric
}

func lastJSON(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out)
	}
	return r
}
