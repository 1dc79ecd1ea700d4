// Package dram models main-memory power at DIMM granularity, the paper's
// §7(4) extension case. DRAM power follows the aggregate access stream:
// a background (refresh/standby) component plus a dynamic component
// proportional to bandwidth. Entanglement arises exactly as on the CPU
// rail — concurrent cores' streams merge — and the paper suggests psbox
// can cover DRAM "through temporal balloons". In this model the CPU is the
// only DRAM master, so the CPU's *spatial* balloons already bound the DRAM
// stream: while a sandbox's coscheduling window is open, all traffic on
// the DIMM is the sandbox's.
package dram

import (
	"fmt"

	"psbox/internal/hw/power"
	"psbox/internal/sim"
)

// Config describes the DIMM.
type Config struct {
	Name string

	// BackgroundW is refresh/standby power, always drawn.
	BackgroundW power.Watts

	// WPerGBs is the dynamic power per GB/s of access bandwidth.
	WPerGBs power.Watts

	// MaxGBs caps the aggregate bandwidth (the channel's limit).
	MaxGBs float64
}

// DefaultConfig models a single LPDDR channel of an embedded SoC.
func DefaultConfig() Config {
	return Config{
		Name:        "dram",
		BackgroundW: 0.08,
		WPerGBs:     0.11,
		MaxGBs:      6.4,
	}
}

func (c Config) validate() error {
	if c.BackgroundW < 0 || c.WPerGBs < 0 {
		return fmt.Errorf("dram %q: negative power", c.Name)
	}
	if c.MaxGBs <= 0 {
		return fmt.Errorf("dram %q: MaxGBs must be positive", c.Name)
	}
	return nil
}

// DRAM is a simulated memory channel. The kernel reports each core's
// current access stream; the model sums them (capped) into rail power.
type DRAM struct {
	eng *sim.Engine
	//psbox:allow-snapshotstate construction-time config; identical by scenario reconstruction under the replay-twin contract
	cfg     Config
	rail    *power.Rail
	streams []float64 // per-core GB/s
}

// New builds an idle channel for a CPU with the given core count.
func New(eng *sim.Engine, cfg Config, cores int) (*DRAM, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cores <= 0 {
		return nil, fmt.Errorf("dram %q: need at least one master core", cfg.Name)
	}
	d := &DRAM{eng: eng, cfg: cfg, streams: make([]float64, cores)}
	d.rail = power.NewRail(eng, cfg.Name, cfg.BackgroundW)
	return d, nil
}

// MustNew is New for statically valid configurations.
func MustNew(eng *sim.Engine, cfg Config, cores int) *DRAM {
	d, err := New(eng, cfg, cores)
	if err != nil {
		panic(err)
	}
	return d
}

// Rail exposes the channel's metering scope.
func (d *DRAM) Rail() *power.Rail { return d.rail }

// Config returns the configuration.
func (d *DRAM) Config() Config { return d.cfg }

// IdlePower is the background power — what sandboxes are fed while their
// balloon is out.
func (d *DRAM) IdlePower() power.Watts { return d.cfg.BackgroundW }

// SetCoreStream reports core's current access bandwidth in GB/s. The
// kernel calls this on every context switch and frequency change.
func (d *DRAM) SetCoreStream(core int, gbs float64) {
	if core < 0 || core >= len(d.streams) {
		panic(fmt.Sprintf("dram %s: core %d out of range", d.cfg.Name, core))
	}
	if gbs < 0 {
		panic(fmt.Sprintf("dram %s: negative bandwidth", d.cfg.Name))
	}
	d.streams[core] = gbs
	d.update()
}

// Bandwidth reports the current aggregate stream in GB/s (after the
// channel cap).
func (d *DRAM) Bandwidth() float64 {
	var total float64
	for _, s := range d.streams {
		total += s
	}
	if total > d.cfg.MaxGBs {
		total = d.cfg.MaxGBs
	}
	return total
}

func (d *DRAM) update() {
	d.rail.Set(d.cfg.BackgroundW + float64(d.cfg.WPerGBs*d.Bandwidth()))
}
