package scenario

import (
	"bytes"
	"encoding/json"
	"testing"

	psbox "psbox"
	"psbox/internal/core"
	"psbox/internal/soak"
	"psbox/internal/workload"
)

// FuzzScenario builds scenario documents from typed arguments, because
// nearly every mutation of raw bytes is invalid JSON: a platform, a seed,
// a 1–20 ms horizon and up to four catalog apps, each packed into a
// uint16 (low byte: workload; bits 8–14: box mask over the seven scopes;
// bit 15: saturate). Every document Parse accepts must run without an
// invariant panic, and a second run must restore from the first run's
// checkpoint at half the horizon.
func FuzzScenario(f *testing.F) {
	f.Add(uint8(0), uint64(42), uint8(19), uint8(3), uint16(0x0103), uint16(0x0000), uint16(0x8007), uint16(0))
	f.Add(uint8(1), uint64(9), uint8(9), uint8(2), uint16(0x0802), uint16(0x0009), uint16(0), uint16(0))
	f.Add(uint8(2), uint64(2), uint8(14), uint8(4), uint16(0x7f04), uint16(0x0105), uint16(0x8a0c), uint16(0x020a))
	platformNames := []string{"am57", "beaglebone", "mobile"}
	scopes := []core.HW{core.HWCPU, core.HWGPU, core.HWDSP, core.HWWiFi, core.HWDisplay, core.HWGPS, core.HWDRAM}
	workloads := workload.Names()
	f.Fuzz(func(t *testing.T, platform uint8, seed uint64, ms, napps uint8, a0, a1, a2, a3 uint16) {
		spec := Spec{
			Platform:   platformNames[int(platform)%len(platformNames)],
			Seed:       seed,
			DurationMs: 1 + int(ms)%20,
		}
		for _, a := range []uint16{a0, a1, a2, a3}[:napps%5] {
			app := AppSpec{Workload: workloads[int(a&0xff)%len(workloads)], Saturate: a&0x8000 != 0}
			for i, h := range scopes {
				if a>>(8+i)&1 != 0 {
					app.Box = append(app.Box, string(h))
				}
			}
			spec.Apps = append(spec.Apps, app)
		}
		doc, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Parse(bytes.NewReader(doc))
		if err != nil {
			return
		}
		mid := psbox.Duration(s.DurationMs) * psbox.Millisecond / 2
		var first, resumed *soak.Tape
		if _, _, err := RunWithSystem(s, func(sys *psbox.System) { first = soak.Arm(sys, mid, mid, nil) }); err != nil {
			// A box scope the platform lacks is a run error.
			return
		}
		if first.Latest == nil {
			t.Fatalf("%s: no checkpoint at %v", doc, mid)
		}
		if _, _, err := RunWithSystem(s, func(sys *psbox.System) { resumed = soak.Arm(sys, mid, mid, first.Latest) }); err != nil {
			t.Fatalf("%s: resumed run failed where the first succeeded: %v", doc, err)
		}
		if !resumed.Restored || resumed.Err != nil {
			t.Fatalf("%s: restore at %v: restored=%v err=%v", doc, mid, resumed.Restored, resumed.Err)
		}
	})
}
