// Command psboxbench is psbox's end-to-end benchmark. It drives the
// simulator through its public calls on one of three workloads, checks the
// simulated outputs, and prints its metrics with their units; the last
// line of standard output is one JSON object.
//
// Usage, from the repository root:
//
//	bash _psboxbench/run.sh --workload fig6-grid --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced passes.
// With --trace 1 it alternates untraced and traced passes, reports the
// per-layer breakdown of the traced ones, and writes their spans as JSON
// to .bench_build/spans/. README.md describes the workloads and every
// metric.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"psbox"
	"psbox/internal/fleet"
	"psbox/internal/sim"
)

// shape sizes the workloads that tests shorten.
type shape struct {
	floodWindows int // 25 ms budget windows per flood-churn run
	fleet        fleetShape
}

// benchShape is what the benchmark measures. flood-churn runs 1000
// windows, so its p99 window has ten windows beyond it.
var benchShape = shape{
	floodWindows: 1000,
	fleet:        fleetShape{shards: 16, horizon: 250 * sim.Millisecond, quanta: 20, ckptEvery: 5},
}

var workloads = []string{"fig6-grid", "flood-churn", "fleet-mobile"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("psboxbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "host seconds to keep starting passes")
	traced := fs.Int("trace", 0, "1: report the per-layer breakdown of traced passes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	known := false
	for _, w := range workloads {
		known = known || w == *name
	}
	if !known || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "psboxbench: need --workload one of %s, --seconds > 0, --trace 0|1\n", strings.Join(workloads, ", "))
		return 2
	}
	b := &bench{workload: *name, seed: *seed, shape: benchShape}
	if err := b.prepare(); err != nil {
		fmt.Fprintln(stderr, "psboxbench:", err)
		return 1
	}
	deadline := time.Now().Add(time.Duration(*seconds * float64(time.Second)))
	var rep *report
	if *traced == 1 {
		tr := newTracer()
		rep = b.traced(deadline, tr)
		path := fmt.Sprintf(".bench_build/spans/%s-%d.json", *name, *seed)
		if err := tr.write(path); err != nil {
			fmt.Fprintln(stderr, "psboxbench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %s\n", path)
	} else {
		rep = b.untraced(deadline)
	}
	rep.print(stdout, b)
	return 0
}

// bench is one process's benchmark: a workload, its seed, and any
// reference outputs computed once before the timed passes.
type bench struct {
	workload string
	seed     uint64
	shape    shape
	clean    []*fleet.ShardReport // fleet-mobile: shard reports without chaos
}

// prepare computes the fleet's clean reference reports. It runs before any
// timed pass, so it also warms the heap.
func (b *bench) prepare() error {
	if b.workload != "fleet-mobile" {
		return nil
	}
	clean, err := fleetReference(b.seed, b.shape.fleet)
	b.clean = clean
	return err
}

// pass is one run of a workload through its public calls, and everything
// measured along the way. Counts feed the per-layer breakdown.
type pass struct {
	seed uint64
	tr   *tracer
	root int // span new spans hang under

	mu      sync.Mutex // guards setupS, systems and fleet's final Systems: the pool builds shards concurrently
	setupS  float64
	systems int
	keep    *psbox.System   // the longest-lived System, measured after the pass
	peers   []*psbox.System // fleet-mobile: the other shards' final Systems

	ops, failed int
	notes       []string
	sum         hash.Hash

	wall, alloc, heapLive float64
	gcCycles              uint32
	gcPauseS              float64
	ckpt                  int
	ckptSimS              float64
	steps                 []float64 // flood-churn: ms per budget window

	events, simNS, reads, windows, spans, accountAlloc int64
	samples, intervals, profWindows, snapBytes         int64
	launches, admitted, rejected, throttles, kills     int64
	restarts, attempts, resumed                        int64
	fleetRunS                                          float64
	shardS                                             []float64
}

func newPass(seed uint64, tr *tracer) *pass {
	return &pass{seed: seed, tr: tr, sum: sha256.New()}
}

// setup times f as platform set-up.
func (p *pass) setup(f func()) {
	id := p.tr.begin("setup.build", "", p.root)
	t0 := time.Now()
	f()
	d := time.Since(t0).Seconds()
	p.tr.end(id)
	p.mu.Lock()
	p.setupS += d
	p.systems++
	p.mu.Unlock()
}

// run advances sys by d and counts the engine events fired.
func (p *pass) run(sys *psbox.System, d sim.Duration) {
	id := p.tr.begin("sim.run", "", p.root)
	defer p.tr.end(id)
	before := sys.Eng.Fired()
	sys.Run(d)
	p.events += int64(sys.Eng.Fired() - before)
	p.simNS += int64(d)
}

// accountAllocs runs f and, when tracing, counts the bytes it allocates.
func (p *pass) accountAllocs(f func()) {
	if p.tr == nil {
		f()
		return
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	p.accountAlloc += int64(b.TotalAlloc - a.TotalAlloc)
}

// guard runs f, turning a panic (an invariant violation in System.Run)
// into n failed operations. It reports whether f returned normally.
func (p *pass) guard(n int, what string, f func()) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			p.fail(n, fmt.Sprintf("%s panicked: %v", what, r))
			ok = false
		}
	}()
	f()
	return true
}

func (p *pass) fail(n int, msg string) {
	p.failed += n
	p.note(msg)
}

func (p *pass) note(msg string) { p.notes = append(p.notes, msg) }

// digest adds simulated output to the pass's sim_digest.
func (p *pass) digest(s string) { io.WriteString(p.sum, s) }

func (p *pass) simDigest() string { return fmt.Sprintf("%x", p.sum.Sum(nil))[:16] }

// one runs a single pass of the workload, then measures, untimed, the
// checkpoint size and live heap of its longest-lived System. A workload
// that took no checkpoint of its own is measured by snapshotting that
// System (for fleet-mobile, every shard's final System) after the pass.
func (b *bench) one(tr *tracer) *pass {
	p := newPass(b.seed, tr)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	p.root = tr.begin("pass", b.workload, 0)
	switch b.workload {
	case "fig6-grid":
		runFig6(p)
	case "flood-churn":
		runFlood(p, b.shape.floodWindows)
	case "fleet-mobile":
		runFleet(p, b.shape.fleet, b.clean)
	}
	tr.end(p.root)
	p.wall = time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)
	p.alloc = float64(after.TotalAlloc - before.TotalAlloc)
	p.gcCycles = after.NumGC - before.NumGC
	p.gcPauseS = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9
	if p.keep != nil {
		if p.ckpt == 0 {
			// The mean over the fleet's shards, or the one System.
			total := len(p.keep.Snapshot())
			for _, s := range p.peers {
				total += len(s.Snapshot())
			}
			p.ckpt, p.ckptSimS = total/(1+len(p.peers)), p.keep.Now().Sub(0).Seconds()
		}
		p.peers = nil
		runtime.GC()
		runtime.ReadMemStats(&after)
		p.heapLive = float64(after.HeapAlloc)
		runtime.KeepAlive(p.keep)
		p.keep = nil
	}
	return p
}

// report is what one process prints.
type report struct {
	passes  []*pass
	metrics []metric
}

type metric struct {
	name  string
	value float64
	unit  string
}

// setupReps is how many times an untraced run repeats a pass's set-up on
// its own: a flood-churn pass sets up once, too few times per run for a
// steady median. The repetitions follow the passes, when the process is no
// longer cold, and each runs with the collector paused. A set-up takes
// milliseconds, and whether a collection landed in it made single
// repetitions up to five times slower.
const setupReps = 20

// setupOnly builds, untimed by any pass, every platform a pass builds
// before its first Run.
func (b *bench) setupOnly() *pass {
	p := newPass(b.seed, nil)
	switch b.workload {
	case "fig6-grid":
		setupFig6(p)
	case "flood-churn":
		setupFlood(p, b.shape.floodWindows)
	case "fleet-mobile":
		setupFleet(p, b.shape.fleet)
	}
	return p
}

// untraced runs passes until the deadline, then repeats the set-up
// setupReps times, and reports the end-to-end metrics as medians.
func (b *bench) untraced(deadline time.Time) *report {
	rep := &report{}
	for len(rep.passes) == 0 || time.Now().Before(deadline) {
		rep.passes = append(rep.passes, b.one(nil))
	}
	var setups []*pass
	gcPercent := debug.SetGCPercent(-1)
	for range setupReps {
		runtime.GC()
		setups = append(setups, b.setupOnly())
	}
	debug.SetGCPercent(gcPercent)
	ps := rep.passes
	rep.metrics = []metric{
		{"wall_s", median(ps, func(p *pass) float64 { return p.wall }), "s"},
		{"setup_s", median(setups, func(p *pass) float64 { return p.setupS }), "s"},
		{"alloc_mb", median(ps, func(p *pass) float64 { return p.alloc / 1e6 }), "MB"},
		{"heap_live_mb", median(ps, func(p *pass) float64 { return p.heapLive / 1e6 }), "MB"},
		{"ckpt_mb", median(ps, func(p *pass) float64 { return float64(p.ckpt) / 1e6 }), "MB"},
	}
	return rep
}

// traced alternates untraced and traced passes until the deadline (at
// least one of each) and reports the per-layer breakdown of the traced
// ones, per pass. For fleet-mobile it then decomposes one shard serially.
func (b *bench) traced(deadline time.Time, tr *tracer) *report {
	var plain, traced []*pass
	for len(traced) == 0 || time.Now().Before(deadline) {
		plain = append(plain, b.one(nil))
		traced = append(traced, b.one(tr))
	}
	var t pass // per-layer totals over the traced passes
	var steps, shardS []float64
	for _, p := range traced {
		t.systems += p.systems
		t.reads += p.reads
		t.windows += p.windows
		t.spans += p.spans
		t.accountAlloc += p.accountAlloc
		t.launches += p.launches
		t.admitted += p.admitted
		t.rejected += p.rejected
		t.throttles += p.throttles
		t.kills += p.kills
		t.restarts += p.restarts
		t.attempts += p.attempts
		t.resumed += p.resumed
		t.fleetRunS += p.fleetRunS
		t.gcCycles += p.gcCycles
		t.gcPauseS += p.gcPauseS
		t.events += p.events
		t.simNS += p.simNS
		t.snapBytes += p.snapBytes
		steps = append(steps, p.steps...)
		shardS = append(shardS, p.shardS...)
	}
	last := traced[len(traced)-1]
	t.ckpt, t.ckptSimS = last.ckpt, last.ckptSimS
	passSpans := append([]span(nil), tr.spans...)
	self := selfByName(passSpans)
	nt := float64(len(traced))
	per := func(v float64) float64 { return v / nt }

	// fleet.Run hides the sim, snapshot, profile and obs calls inside its
	// workers; for fleet-mobile those layers come from a serial
	// decomposition of shard 0 instead.
	d, dself, dn := &t, self, nt
	if b.workload == "fleet-mobile" {
		d = newPass(b.seed, tr)
		decomposeShard(d, b.shape.fleet)
		dself, dn = selfByName(tr.spans[len(passSpans):]), 1
	}
	dper := func(v float64) float64 { return v / dn }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	wallT := median(traced, func(p *pass) float64 { return p.wall })
	wallU := median(plain, func(p *pass) float64 { return p.wall })
	// The pass spans' own self time is the benchmark's glue; everything
	// else is covered by some layer.
	var glue, passDur float64
	selfs := selfTimes(passSpans)
	for i, s := range passSpans {
		if s.Name == "pass" {
			glue += selfs[i]
			passDur += float64(s.End-s.Start) / 1e9
		}
	}
	simS, blameS := dself["sim.run"], dself["obs.blame"]
	accS := self["account.app_energy"]
	sortedShards := sortedCopy(shardS)
	sortedSteps := sortedCopy(steps)
	workers := float64(runtime.NumCPU())
	rep := &report{passes: append(plain, traced...)}
	rep.metrics = []metric{
		{"setup.s", per(self["setup.build"]), "s"},
		{"setup.systems", per(float64(t.systems)), "count"},
		{"sim.s", dper(simS), "s"},
		{"sim.events", dper(float64(d.events)), "count"},
		{"sim.ns_per_event", ratio(simS*1e9, float64(d.events)), "ns"},
		{"sim.sim_s", dper(float64(d.simNS) / 1e9), "s"},
		{"core.read_s", per(self["core.read"]), "s"},
		{"core.reads", per(float64(t.reads)), "count"},
		{"account.s", per(accS), "s"},
		{"account.windows", per(float64(t.windows)), "count"},
		{"account.spans", per(float64(t.spans)), "count"},
		{"account.ns_per_window", ratio(accS*1e9, float64(t.windows)), "ns"},
		{"account.alloc_mb", per(float64(t.accountAlloc) / 1e6), "MB"},
		{"obs.blame_s", dper(blameS), "s"},
		{"obs.samples", dper(float64(d.samples)), "count"},
		{"obs.intervals", dper(float64(d.intervals)), "count"},
		{"obs.ns_per_sample", ratio(blameS*1e9, float64(d.samples)), "ns"},
		{"profile.fold_s", dper(dself["profile.fold"]), "s"},
		{"profile.windows", dper(float64(d.profWindows)), "count"},
		{"snapshot.encode_s", dper(dself["snapshot.encode"]), "s"},
		{"snapshot.verify_s", dper(dself["snapshot.verify"]), "s"},
		{"snapshot.bytes", dper(float64(d.snapBytes)), "B"},
		{"snapshot.bytes_per_sim_s", ratio(float64(d.ckpt), d.ckptSimS), "B/s"},
		{"sandbox.launch_s", per(self["sandbox.launch"]), "s"},
		{"sandbox.launches", per(float64(t.launches)), "count"},
		{"sandbox.admitted", per(float64(t.admitted)), "count"},
		{"sandbox.rejected", per(float64(t.rejected)), "count"},
		{"sandbox.throttles", per(float64(t.throttles)), "count"},
		{"sandbox.kills", per(float64(t.kills)), "count"},
		{"sandbox.restarts", per(float64(t.restarts)), "count"},
		{"fleet.run_s", per(self["fleet.run"]), "s"},
		{"fleet.shard_s_p50", quantile(sortedShards, 0.5), "s"},
		{"fleet.shard_s_max", quantile(sortedShards, 1), "s"},
		{"fleet.attempts", per(float64(t.attempts)), "count"},
		{"fleet.resumed", per(float64(t.resumed)), "count"},
		{"fleet.parallel_eff", ratio(shardSum(shardS), workers*t.fleetRunS), "ratio"},
		{"fleet.rollup_s", per(self["fleet.rollup"]), "s"},
		{"go.gc_cycles", per(float64(t.gcCycles)), "count"},
		{"go.gc_pause_s", per(t.gcPauseS), "s"},
		{"step_ms_p50", quantile(sortedSteps, 0.5), "ms"},
		{"step_ms_p99", quantile(sortedSteps, 0.99), "ms"},
		{"trace.wall_s", wallT, "s"},
		{"trace.untraced_wall_s", wallU, "s"},
		{"trace.overhead_s", wallT - wallU, "s"},
		{"trace.layer_share", ratio(passDur-glue, passDur), "ratio"},
		{"trace.spans", per(float64(len(passSpans))), "count"},
	}
	return rep
}

func shardSum(s []float64) float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

func sortedCopy(s []float64) []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank q-quantile of sorted values, 0 when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(ps []*pass, f func(*pass) float64) float64 {
	v := make([]float64, len(ps))
	for i, p := range ps {
		v[i] = f(p)
	}
	sort.Float64s(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

// print writes the human-readable report, then the JSON result line. Every
// pass must produce the same sim_digest; one that differs counts all its
// operations as failed.
func (r *report) print(w io.Writer, b *bench) {
	attempted, failed := 0, 0
	ref := r.passes[0].simDigest()
	for _, p := range r.passes {
		if p.simDigest() != ref && p.failed < p.ops {
			p.fail(p.ops-p.failed, fmt.Sprintf("sim_digest %s differs from the first pass's %s", p.simDigest(), ref))
		}
		attempted += p.ops
		failed += p.failed
		for _, n := range p.notes {
			fmt.Fprintln(w, "check:", n)
		}
	}
	fmt.Fprintf(w, "workload=%s seed=%d passes=%d ops=%d ops_failed=%d sim_digest=%s\n",
		b.workload, b.seed, len(r.passes), attempted, failed, ref)
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{failed == 0, attempted, failed, map[string]jsonMetric{}}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-26s %14.6f %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	data, _ := json.Marshal(out) // plain structs of numbers and strings always marshal
	fmt.Fprintln(w, string(data))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
