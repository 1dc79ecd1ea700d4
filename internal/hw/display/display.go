// Package display models an OLED panel, the paper's §7(1) extension case.
//
// OLED power is additive per pixel with essentially no lingering state, so
// it is free of power entanglement: the OS can attribute display power to
// apps exactly, by the pixels each app produces, without any ballooning.
// The model exists to demonstrate that psbox's machinery is *not* needed
// where entanglement is structurally absent.
package display

import (
	"fmt"
	"sort"

	"psbox/internal/hw/power"
	"psbox/internal/sim"
)

// Config describes the panel.
type Config struct {
	Name string

	// BaseW is the driver/controller power while the panel is on.
	BaseW power.Watts

	// PixelW is the power of one pixel at full luminance. Total pixel power
	// is PixelW · Σ pixels·luminance over regions.
	PixelW power.Watts

	// Width and Height bound the addressable area.
	Width, Height int
}

// DefaultConfig models a small embedded OLED panel.
func DefaultConfig() Config {
	return Config{
		Name:   "display",
		BaseW:  0.12,
		PixelW: 2.2e-6,
		Width:  1280,
		Height: 800,
	}
}

func (c Config) validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("display %q: non-positive dimensions", c.Name)
	}
	if c.PixelW < 0 || c.BaseW < 0 {
		return fmt.Errorf("display %q: negative power", c.Name)
	}
	return nil
}

// Region is one app's lit screen area.
type Region struct {
	Owner     int
	Pixels    int
	Luminance float64 // mean luminance in [0, 1]
}

// Display is a simulated OLED panel.
type Display struct {
	eng *sim.Engine
	//psbox:allow-snapshotstate construction-time config; identical by scenario reconstruction under the replay-twin contract
	cfg     Config
	rail    *power.Rail
	regions map[int]Region
	on      bool

	// ownerRails carry each app's exact power contribution over time —
	// the per-app attribution the paper says OLED admits directly, and
	// what a psbox bound to the display observes.
	ownerRails map[int]*power.Rail
}

// New builds a powered-on panel showing nothing.
func New(eng *sim.Engine, cfg Config) (*Display, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	d := &Display{
		eng:        eng,
		cfg:        cfg,
		regions:    make(map[int]Region),
		on:         true,
		ownerRails: make(map[int]*power.Rail),
	}
	d.rail = power.NewRail(eng, cfg.Name, cfg.BaseW)
	return d, nil
}

// MustNew is New for statically valid configurations.
func MustNew(eng *sim.Engine, cfg Config) *Display {
	d, err := New(eng, cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Rail exposes the panel's metering scope.
func (d *Display) Rail() *power.Rail { return d.rail }

// SetRegion records what an app is currently drawing. A zero-pixel region
// removes the app's contribution.
func (d *Display) SetRegion(r Region) {
	if r.Pixels < 0 || r.Pixels > d.cfg.Width*d.cfg.Height {
		panic(fmt.Sprintf("display %s: region of %d pixels out of range", d.cfg.Name, r.Pixels))
	}
	if r.Luminance < 0 || r.Luminance > 1 {
		panic(fmt.Sprintf("display %s: luminance %v out of range", d.cfg.Name, r.Luminance))
	}
	if r.Pixels == 0 {
		delete(d.regions, r.Owner)
	} else {
		d.regions[r.Owner] = r
	}
	d.updatePower()
}

// SetPower turns the panel on or off (an off/suspended state).
func (d *Display) SetPower(on bool) {
	d.on = on
	d.updatePower()
}

// On reports whether the panel is powered.
func (d *Display) On() bool { return d.on }

// AppPower reports one app's exact power contribution right now. This is
// the paper's point: for OLED the OS can divide power among apps directly.
func (d *Display) AppPower(owner int) power.Watts {
	if !d.on {
		return 0
	}
	r, ok := d.regions[owner]
	if !ok {
		return 0
	}
	return d.cfg.PixelW * float64(r.Pixels) * r.Luminance
}

// OwnerRail returns (creating on demand) an app's exact attribution rail.
func (d *Display) OwnerRail(owner int) *power.Rail {
	r, ok := d.ownerRails[owner]
	if !ok {
		r = power.NewRail(d.eng, fmt.Sprintf("%s-app%d", d.cfg.Name, owner), d.AppPower(owner))
		d.ownerRails[owner] = r
	}
	return r
}

func (d *Display) updatePower() {
	if !d.on {
		d.rail.Set(0)
		for _, r := range d.ownerRails {
			r.Set(0)
		}
		return
	}
	// Sum in sorted-owner order: float addition is not associative, so
	// map-iteration order would leak into the total's last bits and break
	// byte-determinism across runs.
	owners := make([]int, 0, len(d.regions))
	for owner := range d.regions {
		owners = append(owners, owner)
	}
	sort.Ints(owners)
	p := d.cfg.BaseW
	for _, owner := range owners {
		r := d.regions[owner]
		p += float64(d.cfg.PixelW * float64(r.Pixels) * r.Luminance)
	}
	d.rail.Set(p)
	for owner, r := range d.ownerRails {
		r.Set(d.AppPower(owner))
	}
}
