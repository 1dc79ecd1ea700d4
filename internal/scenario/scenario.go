// Package scenario runs declarative simulation scenarios: a JSON document
// picks a platform, a set of workload instances (optionally sandboxed),
// and a duration; the runner reports per-app throughput, sandbox
// observations, and rail energies. It is the repository's "driver" for
// exploring configurations beyond the canned experiments.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	psbox "psbox"
	"psbox/internal/core"
	"psbox/internal/workload"
)

// AppSpec is one workload instance in a scenario.
type AppSpec struct {
	// Name optionally overrides the instance's app name (instances of a
	// Count > 1 spec get a -N suffix). Non-empty names must be unique
	// across the scenario.
	Name string `json:"name,omitempty"`
	// Workload names a Fig. 5 benchmark from the catalog.
	Workload string `json:"workload"`
	// Count instantiates this many identical instances (default 1).
	Count int `json:"count,omitempty"`
	// Saturate selects the back-to-back variant.
	Saturate bool `json:"saturate,omitempty"`
	// Box lists hardware scopes to sandbox each instance on; empty means
	// unboxed.
	Box []string `json:"box,omitempty"`
}

// Spec is a full scenario.
type Spec struct {
	// Platform: "am57", "beaglebone" or "mobile".
	Platform string `json:"platform"`
	// Seed for deterministic replay.
	Seed uint64 `json:"seed"`
	// DurationMs is the simulated run length.
	DurationMs int       `json:"duration_ms"`
	Apps       []AppSpec `json:"apps"`
}

// Parse reads and validates a scenario document.
func Parse(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// ValidationError pinpoints a rejected scenario field. Field is the JSON
// path of the offender (e.g. "apps[3].workload"); Index is the offending
// app's position in the apps array, or -1 for document-level fields —
// tools can highlight the exact entry instead of making the user scan the
// document.
type ValidationError struct {
	Field string
	Index int
	Msg   string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("scenario: %s: %s", e.Field, e.Msg)
}

// platforms maps each platform name to its configuration.
var platforms = map[string]func(seed uint64) psbox.PlatformConfig{
	"am57":       psbox.AM57Config,
	"beaglebone": psbox.BeagleBoneConfig,
	"mobile":     psbox.MobileConfig,
}

func (s *Spec) validate() error {
	platform, ok := platforms[s.Platform]
	if !ok {
		return &ValidationError{Field: "platform", Index: -1,
			Msg: fmt.Sprintf("unknown platform %q (am57, beaglebone, mobile)", s.Platform)}
	}
	cfg := platform(s.Seed)
	devices := map[string]bool{"cpu": true, "gpu": cfg.GPU != nil, "dsp": cfg.DSP != nil, "wifi": cfg.WiFi != nil}
	if s.DurationMs <= 0 {
		return &ValidationError{Field: "duration_ms", Index: -1, Msg: "must be positive"}
	}
	if len(s.Apps) == 0 {
		return &ValidationError{Field: "apps", Index: -1, Msg: "need at least one app"}
	}
	catalog := workload.Catalog()
	seen := map[string]int{}
	for i, a := range s.Apps {
		if a.Name != "" {
			if j, dup := seen[a.Name]; dup {
				return &ValidationError{Field: fmt.Sprintf("apps[%d].name", i), Index: i,
					Msg: fmt.Sprintf("duplicate app name %q (first declared at apps[%d])", a.Name, j)}
			}
			seen[a.Name] = i
		}
		f, ok := catalog[a.Workload]
		if !ok {
			return &ValidationError{Field: fmt.Sprintf("apps[%d].workload", i), Index: i,
				Msg: fmt.Sprintf("unknown workload %q (see fig5 for the catalog)", a.Workload)}
		}
		if d := f(cfg.CPU.Cores, a.Saturate).Domain; !devices[d] {
			return &ValidationError{Field: fmt.Sprintf("apps[%d].workload", i), Index: i,
				Msg: fmt.Sprintf("workload %q needs a %s device, which platform %q lacks", a.Workload, d, s.Platform)}
		}
		if a.Count < 0 {
			return &ValidationError{Field: fmt.Sprintf("apps[%d].count", i), Index: i,
				Msg: "negative count"}
		}
		for _, h := range a.Box {
			switch core.HW(h) {
			case core.HWCPU, core.HWGPU, core.HWDSP, core.HWWiFi,
				core.HWDisplay, core.HWGPS, core.HWDRAM:
			default:
				return &ValidationError{Field: fmt.Sprintf("apps[%d].box", i), Index: i,
					Msg: fmt.Sprintf("unknown scope %q", h)}
			}
		}
	}
	return nil
}

// AppReport is one instance's outcome.
type AppReport struct {
	Name     string             `json:"name"`
	Workload string             `json:"workload"`
	Boxed    []string           `json:"boxed,omitempty"`
	Counters map[string]float64 `json:"counters,omitempty"`
	// CPUTimeS is on-CPU seconds consumed.
	CPUTimeS float64 `json:"cpu_time_s"`
	// BoxMJ is the sandbox's observed energy, per scope, if boxed.
	BoxMJ map[string]float64 `json:"box_mj,omitempty"`
}

// Report is a scenario's outcome.
type Report struct {
	Platform string             `json:"platform"`
	Seed     uint64             `json:"seed"`
	SimTimeS float64            `json:"sim_time_s"`
	Apps     []AppReport        `json:"apps"`
	RailsMJ  map[string]float64 `json:"rails_mj"`
}

// counterNames is the set of throughput counters workloads emit.
var counterNames = []string{"kb", "frames", "chunks", "cmds", "gflops", "bytes", "pages"}

// Run executes the scenario.
func Run(s *Spec) (*Report, error) {
	rep, _, err := RunWithSystem(s, nil)
	return rep, err
}

// RunWithSystem executes the scenario like Run, but calls setup (when
// non-nil) on the freshly assembled system before any apps are installed
// — the hook point for enabling tracing or registering extra snapshotters
// — and returns the driven system alongside the report so callers can
// read traces, metrics, and blame timelines off it.
func RunWithSystem(s *Spec, setup func(*psbox.System)) (*Report, *psbox.System, error) {
	sys := psbox.NewSystem(platforms[s.Platform](s.Seed))
	if setup != nil {
		setup(sys)
	}
	catalog := workload.Catalog()
	type inst struct {
		app  *psbox.App
		spec AppSpec
		box  *core.Box
	}
	var insts []inst
	for _, a := range s.Apps {
		count := a.Count
		if count == 0 {
			count = 1
		}
		for i := 0; i < count; i++ {
			ws := catalog[a.Workload](sys.Kernel.CPU().Cores(), a.Saturate)
			if a.Name != "" {
				ws.Name = a.Name
				if count > 1 {
					ws.Name = fmt.Sprintf("%s-%d", a.Name, i)
				}
			}
			app := workload.Install(sys.Kernel, ws)
			it := inst{app: app, spec: a}
			if len(a.Box) > 0 {
				scopes := make([]core.HW, 0, len(a.Box))
				for _, h := range a.Box {
					scopes = append(scopes, core.HW(h))
				}
				box, err := sys.Sandbox.Create(app, scopes...)
				if err != nil {
					return nil, nil, fmt.Errorf("scenario: boxing %s: %w", app.Name, err)
				}
				box.Enter()
				it.box = box
			}
			insts = append(insts, it)
		}
	}
	sys.Run(psbox.Duration(s.DurationMs) * psbox.Millisecond)

	rep := &Report{
		Platform: s.Platform,
		Seed:     s.Seed,
		SimTimeS: sys.Now().Seconds(),
		RailsMJ:  map[string]float64{},
	}
	for _, rail := range sys.Meter.Rails() {
		rep.RailsMJ[rail] = sys.Meter.Energy(rail, 0, sys.Now()) * 1000
	}
	for _, it := range insts {
		ar := AppReport{
			Name:     it.app.Name,
			Workload: it.spec.Workload,
			Boxed:    it.spec.Box,
			CPUTimeS: it.app.CPUTime().Seconds(),
			Counters: map[string]float64{},
		}
		for _, c := range counterNames {
			if v := it.app.Counter(c); v != 0 {
				ar.Counters[c] = v
			}
		}
		if it.box != nil {
			ar.BoxMJ = map[string]float64{}
			for _, h := range it.box.HW() {
				ar.BoxMJ[string(h)] = it.box.ReadScope(h) * 1000
			}
		}
		rep.Apps = append(rep.Apps, ar)
	}
	return rep, sys, nil
}

// Render prints a human-readable report.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "scenario: platform=%s seed=%d simulated %.2fs\n\n", r.Platform, r.Seed, r.SimTimeS)
	fmt.Fprintf(w, "%-16s %-10s %10s  %-24s %s\n", "app", "workload", "cpu (s)", "throughput", "box observation (mJ)")
	for _, a := range r.Apps {
		var thr []string
		keys := make([]string, 0, len(a.Counters))
		for k := range a.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			thr = append(thr, fmt.Sprintf("%s=%.0f", k, a.Counters[k]))
		}
		var boxed []string
		bkeys := make([]string, 0, len(a.BoxMJ))
		for k := range a.BoxMJ {
			bkeys = append(bkeys, k)
		}
		sort.Strings(bkeys)
		for _, k := range bkeys {
			boxed = append(boxed, fmt.Sprintf("%s=%.1f", k, a.BoxMJ[k]))
		}
		fmt.Fprintf(w, "%-16s %-10s %10.3f  %-24s %s\n",
			a.Name, a.Workload, a.CPUTimeS, strings.Join(thr, " "), strings.Join(boxed, " "))
	}
	fmt.Fprintf(w, "\nrail energies (mJ):")
	rkeys := make([]string, 0, len(r.RailsMJ))
	for k := range r.RailsMJ {
		rkeys = append(rkeys, k)
	}
	sort.Strings(rkeys)
	for _, k := range rkeys {
		fmt.Fprintf(w, " %s=%.1f", k, r.RailsMJ[k])
	}
	fmt.Fprintln(w)
}
