package main

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"time"

	"psbox"
	"psbox/internal/fleet"
	"psbox/internal/obs"
	"psbox/internal/sim"
)

// fleetShape sizes the fleet-mobile workload: shards of
// fleet.DefaultScenario (a Mobile platform with all seven metered rails,
// tracing and profiling, a randomized fault campaign, and accelerator
// watchdogs), each run for horizon in quanta steps with a checkpoint every
// ckptEvery quanta.
type fleetShape struct {
	shards    int
	horizon   sim.Duration
	quanta    int
	ckptEvery int
}

func (sh fleetShape) config(seed uint64, chaos *fleet.Plan, build fleet.Builder) fleet.Config {
	return fleet.Config{
		Shards:          sh.shards,
		Workers:         runtime.NumCPU(),
		Horizon:         sh.horizon,
		Seed:            seed,
		Quanta:          sh.quanta,
		CheckpointEvery: sh.ckptEvery,
		MaxRetries:      2,
		// Short host backoff: retries are the work under test, waiting is not.
		BackoffBase: time.Millisecond,
		BackoffCap:  2 * time.Millisecond,
		Build:       build,
		Chaos:       chaos,
	}
}

// fleetChaos draws the chaos plan from the seed: three distinct shards
// (fewer in a smaller fleet) are killed on their first attempt at a
// quantum after the first checkpoint, so their retry resumes from it; the
// third also has its checkpoint corrupted, so its second attempt is
// rejected and the third restarts from zero. There are no hangs: a hang
// costs only wall-clock waiting for the watchdog.
func fleetChaos(seed uint64, sh fleetShape) map[int][]fleet.Injection {
	r := sim.NewRand(seed ^ 0xc4a05)
	order := perm(r, sh.shards)
	n := min(3, sh.shards)
	plan := make(map[int][]fleet.Injection, n)
	for i := 0; i < n; i++ {
		plan[order[i]] = []fleet.Injection{{
			Attempt: 0,
			Kind:    fleet.FailPanic,
			Quantum: sh.ckptEvery + 1 + r.Intn(max(1, sh.quanta-sh.ckptEvery-1)),
			Corrupt: i == 2,
		}}
	}
	return plan
}

// perm is a seeded Fisher-Yates permutation of [0, n).
func perm(r *sim.Rand, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// fleetReference runs the fleet once without chaos. Every shard of a
// chaos pass, resumed or not, must report exactly what it reports here.
func fleetReference(seed uint64, sh fleetShape) ([]*fleet.ShardReport, error) {
	res, err := fleet.Run(sh.config(seed, nil, nil))
	if err != nil {
		return nil, err
	}
	out := make([]*fleet.ShardReport, len(res.Shards))
	for i, o := range res.Shards {
		out[i] = o.Report
	}
	return out, nil
}

// shardClock attributes pool time to shards from outside fleet.Run. Each
// attempt goroutine calls the Builder first, and the worker that started
// it calls Progress once the shard is done; the runtime's stack header
// names both goroutines, so each shard's host time runs from its first
// build to its worker's next Progress call.
type shardClock struct {
	mu     sync.Mutex
	t0     time.Time
	cur    map[int]int     // worker goroutine → shard in flight
	start  map[int]float64 // shard → first build, seconds since t0
	shardS []float64
}

var (
	goroutineHeader = []byte("goroutine ")
	createdByPrefix = []byte(" in goroutine ")
)

// goroutineIDs returns the calling goroutine's id and its creator's.
func goroutineIDs() (self, creator int) {
	buf := make([]byte, 8<<10)
	buf = buf[:runtime.Stack(buf, false)]
	self = leadingInt(buf[bytes.Index(buf, goroutineHeader)+len(goroutineHeader):])
	if i := bytes.LastIndex(buf, createdByPrefix); i >= 0 {
		creator = leadingInt(buf[i+len(createdByPrefix):])
	}
	return self, creator
}

func leadingInt(b []byte) int {
	n := 0
	for n < len(b) && b[n] >= '0' && b[n] <= '9' {
		n++
	}
	v, _ := strconv.Atoi(string(b[:n]))
	return v
}

func (c *shardClock) built(shard int) {
	_, worker := goroutineIDs()
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.start[shard]; !ok {
		c.start[shard] = time.Since(c.t0).Seconds()
	}
	c.cur[worker] = shard
}

func (c *shardClock) done() {
	worker, _ := goroutineIDs()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.shardS = append(c.shardS, time.Since(c.t0).Seconds()-c.start[c.cur[worker]])
}

// setupFleet builds every shard's System once, one after another.
func setupFleet(p *pass, sh fleetShape) {
	for shard := 0; shard < sh.shards; shard++ {
		p.setup(func() { fleet.DefaultScenario(shard, fleet.ShardSeed(p.seed, shard), sh.horizon) })
	}
}

// runFleet is one pass: fleet.Run over the chaos plan with Workers =
// nproc, then Rollup. Every shard must complete and match its clean
// reference report.
func runFleet(p *pass, sh fleetShape, clean []*fleet.ShardReport) {
	var clock *shardClock
	if p.tr != nil {
		clock = &shardClock{t0: time.Now(), cur: map[int]int{}, start: map[int]float64{}}
	}
	final := make([]*psbox.System, sh.shards)
	build := func(shard int, seed uint64, horizon sim.Duration) *psbox.System {
		if clock != nil {
			clock.built(shard)
		}
		var sys *psbox.System
		p.setup(func() { sys = fleet.DefaultScenario(shard, seed, horizon) })
		p.mu.Lock()
		final[shard] = sys // a shard's last attempt is the one that completes
		p.mu.Unlock()
		return sys
	}
	cfg := sh.config(p.seed, fleet.PlanFromInjections(p.seed, fleetChaos(p.seed, sh)), build)
	if clock != nil {
		cfg.Progress = func(int, int, int) { clock.done() }
	}
	p.ops += sh.shards

	var res *fleet.Result
	var err error
	root := p.root
	p.root = p.tr.begin("fleet.run", "", root)
	t0 := time.Now()
	res, err = fleet.Run(cfg)
	p.fleetRunS += time.Since(t0).Seconds()
	p.tr.end(p.root)
	p.root = root
	if err != nil {
		p.fail(sh.shards, "fleet: "+err.Error())
		return
	}
	p.keep, p.peers = final[0], final[1:]
	var ru *fleet.Rollup
	p.tr.do("fleet.rollup", "", p.root, func() { ru = res.Rollup() })

	for i, o := range res.Shards {
		p.attempts += int64(o.Attempts)
		if o.ResumedFrom > 0 {
			p.resumed++
		}
		switch {
		case o.Quarantined:
			p.fail(1, fmt.Sprintf("fleet shard %d quarantined after %d attempts", i, o.Attempts))
		case !reflect.DeepEqual(o.Report, clean[i]):
			p.fail(1, fmt.Sprintf("fleet shard %d (attempts %d, resumed at %v) differs from its clean run", i, o.Attempts, o.ResumedFrom))
		}
	}
	if clock != nil {
		p.shardS = append(p.shardS, clock.shardS...)
	}
	var b bytes.Buffer
	b.WriteString(res.Format())
	_ = ru.WriteMetrics(&b)
	_ = ru.WriteFolded(&b)
	p.digest(b.String())
}

// decomposeShard runs shard 0 of the fleet serially, outside the pool, to
// time the calls fleet.Run hides inside its workers: build, Run per
// quantum, Snapshot at the checkpoint cadence, FoldProfile, and Blame per
// rail.
func decomposeShard(p *pass, sh fleetShape) {
	root := p.tr.begin("decompose", "fleet shard 0", 0)
	defer p.tr.end(root)
	p.root = root
	var sys *psbox.System
	p.setup(func() { sys = fleet.DefaultScenario(0, fleet.ShardSeed(p.seed, 0), sh.horizon) })
	quantum := sh.horizon / sim.Duration(sh.quanta)
	for q := 1; q <= sh.quanta; q++ {
		p.run(sys, quantum)
		if q%sh.ckptEvery == 0 {
			var ck []byte
			p.tr.do("snapshot.encode", "", root, func() { ck = sys.Snapshot() })
			p.snapBytes += int64(len(ck))
			p.ckpt, p.ckptSimS = len(ck), sys.Now().Sub(0).Seconds()
		}
	}
	p.tr.do("profile.fold", "", root, sys.FoldProfile)
	p.profWindows += int64(sys.Profile.Windows())
	for _, rail := range sys.Meter.Rails() {
		if rail == "battery" {
			continue
		}
		var bl []obs.Blame
		p.tr.do("obs.blame", rail, root, func() { bl = sys.Blame(rail, 0, sys.Now()) })
		p.samples += int64(len(bl))
		p.intervals += int64(len(obs.IntervalsFromEvents(sys.Trace.Events(), rail)))
	}
}
