package fleet

import (
	"fmt"
	"io"
	"sort"

	"psbox/internal/obs"
	"psbox/internal/obs/profile"
	"psbox/internal/sim"
)

// Rollup is the fleet observability aggregate over completed shards: the
// merged metrics registries, the merged energy profile, the per-device
// battery-energy distribution, and blame-share outlier flags. Like the
// merged report it is a pure function of the per-shard reports, folded in
// ascending shard-ID order — never of Workers or completion order — so
// every rendering below byte-compares across worker counts. Quarantined
// shards are absent from every aggregate (coverage, not renormalization).
type Rollup struct {
	Merged  *Merged
	Shards  int
	Metrics *obs.MetricsDump

	// Profile is the fleet-wide folded energy tree in canonical order.
	Profile         []profile.Entry
	ProfileWindows  uint64
	ProfileDegraded uint64

	// EnergyDist is the distribution of per-device battery energy, one
	// observation per completed shard at 1 histogram tick ≡ 1 µJ (so
	// DeviceEnergyJ(ru.EnergyDist.P50()) is the median device's joules).
	EnergyDist *obs.Hist

	// Outliers flags devices whose blame share for some principal
	// deviates anomalously from the fleet, by median absolute deviation:
	// robust sigma = 1.4826 × MAD, flag when |share − median| > 3.5 σ.
	// A degenerate fleet (σ = 0) flags nothing. Sorted by (App, Shard).
	Outliers []Outlier
}

// Outlier is one flagged (device, principal) blame share.
type Outlier struct {
	Shard  int
	App    string
	Share  float64 // this device's share of its own blamed energy
	Median float64 // fleet median share for this principal
	Sigma  float64 // robust sigma (1.4826 × MAD) of the fleet's shares
}

// energyTick converts one device's battery joules into the histogram's
// tick domain (1 tick ≡ 1 µJ).
func energyTick(j float64) sim.Duration { return sim.Duration(int64(float64(j*1e6) + 0.5)) }

// DeviceEnergyJ converts an EnergyDist quantile back to joules.
func DeviceEnergyJ(tick sim.Duration) float64 { return float64(tick) / 1e6 }

// madParams computes the median and robust sigma (1.4826 × MAD) of vals.
func madParams(vals []float64) (median, sigma float64) {
	med := func(xs []float64) float64 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		n := len(s)
		if n%2 == 1 {
			return s[n/2]
		}
		return (s[n/2-1] + s[n/2]) / 2
	}
	median = med(vals)
	dev := make([]float64, len(vals))
	for i, v := range vals {
		if v >= median {
			dev[i] = v - median
		} else {
			dev[i] = median - v
		}
	}
	return median, 1.4826 * med(dev)
}

// Rollup folds the per-shard reports into the fleet observability
// aggregate, in ascending shard-ID order throughout.
func (r *Result) Rollup() *Rollup {
	ru := &Rollup{
		Merged:  r.Merge(),
		Shards:  len(r.Shards),
		Metrics: obs.NewMetricsDump(),
	}

	var profiles [][]profile.Entry
	type shardShare struct {
		shard int
		share float64
	}
	shares := make(map[string][]shardShare) // app → completed shards' blame shares
	var hist obs.Hist
	for _, sh := range r.Shards {
		if sh.Quarantined || sh.Report == nil {
			continue
		}
		rep := sh.Report
		if rep.Metrics != nil {
			ru.Metrics.Merge(rep.Metrics)
		}
		profiles = append(profiles, rep.Profile)
		ru.ProfileWindows += rep.ProfileWindows
		ru.ProfileDegraded += rep.ProfileDegraded
		hist.Observe(energyTick(rep.BatteryJ))

		var blamed float64
		for _, bl := range rep.Blame {
			blamed += bl.J
		}
		if blamed > 0 {
			for _, bl := range rep.Blame {
				shares[bl.App] = append(shares[bl.App], shardShare{sh.Shard, bl.J / blamed})
			}
		}
	}
	ru.Profile = profile.MergeEntries(profiles...)
	ru.EnergyDist = &hist

	apps := make([]string, 0, len(shares))
	for app := range shares {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	for _, app := range apps {
		ss := shares[app]
		if len(ss) < 3 {
			// With fewer than three devices every share is its own median
			// neighbourhood; outlier flagging would be noise.
			continue
		}
		vals := make([]float64, len(ss))
		for i, s := range ss {
			vals[i] = s.share
		}
		median, sigma := madParams(vals)
		if sigma == 0 {
			continue
		}
		for _, s := range ss {
			dev := s.share - median
			if dev < 0 {
				dev = -dev
			}
			if dev > 3.5*sigma {
				ru.Outliers = append(ru.Outliers, Outlier{
					Shard: s.shard, App: app, Share: s.share, Median: median, Sigma: sigma,
				})
			}
		}
	}
	return ru
}

// WriteMetrics renders the rollup's canonical text form: the merged
// metrics registry, the per-device energy distribution, and the outlier
// flags.
func (ru *Rollup) WriteMetrics(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "-- fleet metrics rollup: %d/%d shards --\n",
		ru.Merged.Completed, ru.Shards); err != nil {
		return err
	}
	if err := ru.Metrics.Write(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "-- device energy distribution (battery J per completed shard) --\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "devices=%d p50=%.6f p95=%.6f p99=%.6f J\n",
		ru.EnergyDist.Count,
		DeviceEnergyJ(ru.EnergyDist.P50()),
		DeviceEnergyJ(ru.EnergyDist.P95()),
		DeviceEnergyJ(ru.EnergyDist.P99())); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "-- blame-share outliers (|share-median| > 3.5 x 1.4826 x MAD) --\n"); err != nil {
		return err
	}
	if len(ru.Outliers) == 0 {
		if _, err := fmt.Fprintln(w, "(none)"); err != nil {
			return err
		}
	}
	for _, o := range ru.Outliers {
		if _, err := fmt.Fprintf(w, "shard %d app=%s share=%.6f median=%.6f sigma=%.6f\n",
			o.Shard, o.App, o.Share, o.Median, o.Sigma); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "-- profile: windows=%d degraded=%d stacks=%d --\n",
		ru.ProfileWindows, ru.ProfileDegraded, len(ru.Profile))
	return err
}

// WriteFolded writes the fleet profile as flamegraph-collapsed stacks.
func (ru *Rollup) WriteFolded(w io.Writer) error { return profile.WriteFolded(w, ru.Profile) }

// WriteTop writes the fleet profile's deterministic top-N table.
func (ru *Rollup) WriteTop(w io.Writer, n int) error { return profile.WriteTop(w, ru.Profile, n) }

// WriteProm renders the rollup in Prometheus text exposition format:
// fleet-level series first (shard counts, coverage, energy totals, the
// per-device energy distribution as a quantile summary, outlier and
// profile-window counts), then the merged metrics registry.
func (ru *Rollup) WriteProm(w io.Writer) error {
	m := ru.Merged
	p := func(format string, args ...interface{}) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	steps := []func() error{
		func() error { return p("# TYPE psbox_fleet_shards gauge\npsbox_fleet_shards %d\n", ru.Shards) },
		func() error {
			return p("# TYPE psbox_fleet_shards_completed gauge\npsbox_fleet_shards_completed %d\n", m.Completed)
		},
		func() error {
			return p("# TYPE psbox_fleet_shards_quarantined gauge\npsbox_fleet_shards_quarantined %d\n",
				len(m.Quarantined))
		},
		func() error { return p("# TYPE psbox_fleet_coverage gauge\npsbox_fleet_coverage %.9g\n", m.Coverage) },
		func() error {
			return p("# TYPE psbox_fleet_battery_joules gauge\npsbox_fleet_battery_joules %.9g\n", m.BatteryJ)
		},
		func() error {
			if err := p("# TYPE psbox_fleet_blame_joules gauge\n"); err != nil {
				return err
			}
			for _, bl := range m.Blame {
				if err := p("psbox_fleet_blame_joules{app=\"%s\"} %.9g\n", bl.App, bl.J); err != nil {
					return err
				}
			}
			return nil
		},
		func() error {
			if err := p("# TYPE psbox_fleet_device_energy_joules summary\n"); err != nil {
				return err
			}
			for _, q := range []struct {
				label string
				v     sim.Duration
			}{
				{"0.5", ru.EnergyDist.P50()},
				{"0.95", ru.EnergyDist.P95()},
				{"0.99", ru.EnergyDist.P99()},
			} {
				if err := p("psbox_fleet_device_energy_joules{quantile=\"%s\"} %.9g\n",
					q.label, DeviceEnergyJ(q.v)); err != nil {
					return err
				}
			}
			if err := p("psbox_fleet_device_energy_joules_sum %.9g\n", m.BatteryJ); err != nil {
				return err
			}
			return p("psbox_fleet_device_energy_joules_count %d\n", ru.EnergyDist.Count)
		},
		func() error {
			return p("# TYPE psbox_fleet_blame_outliers gauge\npsbox_fleet_blame_outliers %d\n", len(ru.Outliers))
		},
		func() error {
			return p("# TYPE psbox_fleet_profile_windows_total counter\npsbox_fleet_profile_windows_total %d\n",
				ru.ProfileWindows)
		},
		func() error {
			return p("# TYPE psbox_fleet_profile_degraded_windows_total counter\npsbox_fleet_profile_degraded_windows_total %d\n",
				ru.ProfileDegraded)
		},
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return ru.Metrics.WriteProm(w)
}
