package psbox_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"psbox"
	"psbox/internal/sandbox"
	"psbox/internal/snapshot"
)

// buildCrashSystem constructs the restore-equivalence scenario: the mobile
// platform, a GPU-bound sandbox and a WiFi sandbox, one fault of the given
// kind striking at 0.4×horizon (lasting 0.2×horizon where the kind has a
// duration), a periodic invariant audit, and checkpoint events every
// horizon/8. The checkpoint events are scheduled at construction, at fixed
// absolute times, in every run — golden, crashed, and resumed — so all
// runs allocate identical event sequences; only the callback body differs.
func buildCrashSystem(seed uint64, horizon psbox.Duration, kind string,
	onCkpt func(*psbox.System, psbox.Time)) *psbox.System {
	sys := psbox.NewMobile(seed)
	sys.EnableAccelWatchdogs()

	vision := sys.Kernel.NewApp("vision")
	vision.Spawn("render", 0, psbox.Loop(
		psbox.Compute{Cycles: 2e6},
		psbox.SubmitAccel{Dev: "gpu", Kind: "frame", Work: 3e4, DynW: 0.9},
		psbox.AwaitAccel{Dev: "gpu", MaxBacklog: 2},
		psbox.Sleep{D: 4 * psbox.Millisecond},
	))
	sys.Sandbox.MustCreate(vision, psbox.HWCPU, psbox.HWGPU).Enter()

	stream := sys.Kernel.NewApp("stream")
	sock := stream.OpenSocket()
	stream.Spawn("uplink", 1, psbox.Loop(
		psbox.Compute{Cycles: 8e5},
		psbox.Send{Socket: sock, Bytes: 24_000},
		psbox.AwaitNet{MaxBacklog: 48_000},
		psbox.Sleep{D: 6 * psbox.Millisecond},
	))
	sys.Sandbox.MustCreate(stream, psbox.HWCPU, psbox.HWWiFi).Enter()

	at := psbox.Time(float64(horizon) * 0.4)
	dur := psbox.Duration(float64(horizon) * 0.2)
	switch kind {
	case "accel-hang":
		sys.Faults.HangAccelAt(at, "gpu")
	case "nic-flap":
		sys.Faults.FlapLinkAt(at, "wifi", dur)
	case "dvfs-stall":
		sys.Faults.StallDVFSAt(at, "cpu", dur)
	case "meter-dropout":
		sys.Faults.DropMeterAt(at, "gpu", dur)
	default:
		panic("unknown fault kind " + kind)
	}

	sys.SetAuditEvery(horizon / 20)

	every := horizon / 8
	for t := psbox.Time(int64(every)); t <= psbox.Time(int64(horizon)); t = t.Add(every) {
		tt := t
		sys.Eng.At(tt, func(psbox.Time) {
			if onCkpt != nil {
				onCkpt(sys, tt)
			}
		})
	}
	return sys
}

// crashReport renders the scenario's final state deterministically.
func crashReport(sys *psbox.System) string {
	var b strings.Builder
	b.WriteString(sys.Faults.FormatLog())
	for _, name := range sys.Kernel.AccelNames() {
		d := sys.Kernel.Accel(name)
		fmt.Fprintf(&b, "%-6s resets=%d resubmits=%d dropped=%d completed=%d\n",
			name, d.WatchdogResets(), d.Resubmits(), d.DroppedCommands(), d.Completed(0))
	}
	fmt.Fprintf(&b, "net flaps=%d retries=%d\n",
		sys.Kernel.Net().NIC().Flaps(), sys.Kernel.Net().LinkRetries())
	for _, app := range sys.Kernel.Apps() {
		fmt.Fprintf(&b, "%-10s frames=%.0f cpu=%d\n", app.Name, app.Counter("frames"), int64(app.CPUTime()))
	}
	for _, bx := range sys.Sandbox.Boxes() {
		direct, est, gaps := bx.ReadDetail()
		fmt.Fprintf(&b, "%-10s read=%.9f direct=%.9f est=%.9f gaps=%d\n",
			bx.App().Name, direct+est, direct, est, gaps)
	}
	fmt.Fprintf(&b, "battery=%.9f J audits=%d\n",
		sys.Meter.Energy("battery", 0, sys.Now()), sys.Audits())
	return b.String()
}

// TestRestoreEquivalenceUnderFaults is the satellite-3 contract: for each
// fault kind, crash the run mid-fault, resume from the last checkpoint
// (rebuild + deterministic replay + byte-verify), run to the horizon, and
// require the resumed final report to be byte-identical to the
// uninterrupted golden run's.
func TestRestoreEquivalenceUnderFaults(t *testing.T) {
	const seed = 42
	horizon := 400 * psbox.Millisecond
	crashAt := psbox.Duration(float64(horizon) * 0.55) // mid-fault: fault spans [0.4h, 0.6h)

	for _, kind := range []string{"accel-hang", "nic-flap", "dvfs-stall", "meter-dropout"} {
		t.Run(kind, func(t *testing.T) {
			// Uninterrupted golden run, capturing checkpoints along the way.
			goldenCkpts := map[psbox.Time][]byte{}
			golden := buildCrashSystem(seed, horizon, kind, func(s *psbox.System, at psbox.Time) {
				goldenCkpts[at] = s.Snapshot()
			})
			golden.Run(horizon)
			goldenReport := crashReport(golden)

			// Crashed run: stops mid-fault; keeps only the last checkpoint,
			// like a process kill would.
			var lastBytes []byte
			var lastAt psbox.Time
			crashed := buildCrashSystem(seed, horizon, kind, func(s *psbox.System, at psbox.Time) {
				lastBytes, lastAt = s.Snapshot(), at
			})
			crashed.Run(crashAt)
			if lastBytes == nil {
				t.Fatal("crashed run captured no checkpoint")
			}
			if want := psbox.Time(0).Add(horizon / 2); lastAt != want {
				t.Fatalf("last checkpoint at %v, want %v", lastAt, want)
			}
			// Checkpoint bytes are a pure function of (scenario, instant):
			// the crashed run's capture must equal the golden run's.
			if d := snapshot.Diff(goldenCkpts[lastAt], lastBytes); d != "" {
				t.Fatalf("checkpoint diverges between golden and crashed run: %s", d)
			}

			// Resumed run: rebuild the scenario, replay deterministically;
			// at the checkpoint instant, Restore byte-verifies the live
			// state against the crashed run's checkpoint; then run to the
			// horizon.
			var restoreErr error
			restored := false
			resumed := buildCrashSystem(seed, horizon, kind, func(s *psbox.System, at psbox.Time) {
				if at == lastAt {
					restoreErr = s.Restore(lastBytes)
					restored = true
				}
			})
			resumed.Run(horizon)
			if !restored {
				t.Fatal("resumed run never reached the checkpoint instant")
			}
			if restoreErr != nil {
				t.Fatalf("restore verification failed: %v", restoreErr)
			}
			if got := crashReport(resumed); got != goldenReport {
				t.Errorf("resumed report diverges from golden\n-- golden --\n%s\n-- resumed --\n%s",
					goldenReport, got)
			}
		})
	}
}

// TestSnapshotDeterminism: two identically-built systems produce
// byte-identical checkpoints, and Restore accepts its own snapshot;
// a different seed must be rejected with a section-qualified error.
func TestSnapshotDeterminism(t *testing.T) {
	horizon := 100 * psbox.Millisecond
	a := buildCrashSystem(7, horizon, "accel-hang", nil)
	b := buildCrashSystem(7, horizon, "accel-hang", nil)
	a.Run(horizon)
	b.Run(horizon)
	sa, sb := a.Snapshot(), b.Snapshot()
	if !bytes.Equal(sa, sb) {
		t.Fatalf("identical systems diverge: %s", snapshot.Diff(sa, sb))
	}
	if err := a.Restore(sb); err != nil {
		t.Fatalf("restore of twin snapshot failed: %v", err)
	}

	c := buildCrashSystem(8, horizon, "accel-hang", nil)
	c.Run(horizon)
	if err := c.Restore(sa); err == nil {
		t.Fatal("restore accepted a checkpoint from a different seed")
	}
}

// TestSnapshotOwnsNoBuffer: a checkpoint depends only on the state it
// captures, not on the checkpoints its system took before, and a later
// checkpoint never writes into an earlier one's buffer. Of two identically
// built systems run to the same instant, one checkpoints at every eighth
// of the way and the other never; their final checkpoints must be
// byte-identical, and every checkpoint returned along the way must still
// equal the clone taken when it was returned.
func TestSnapshotOwnsNoBuffer(t *testing.T) {
	horizon := 80 * psbox.Millisecond
	var taken, clones [][]byte
	a := buildCrashSystem(7, horizon, "nic-flap", func(s *psbox.System, _ psbox.Time) {
		ckpt := s.Snapshot()
		taken = append(taken, ckpt)
		clones = append(clones, bytes.Clone(ckpt))
	})
	b := buildCrashSystem(7, horizon, "nic-flap", nil)
	a.Run(horizon)
	b.Run(horizon)
	if len(taken) != 8 {
		t.Fatalf("took %d checkpoints along the way, want 8", len(taken))
	}
	if sa, sb := a.Snapshot(), b.Snapshot(); !bytes.Equal(sa, sb) {
		t.Fatalf("the system that checkpointed along the way diverges from its twin: %s", snapshot.Diff(sa, sb))
	}
	for i := range taken {
		if !bytes.Equal(taken[i], clones[i]) {
			t.Errorf("checkpoint %d changed after later checkpoints were taken", i+1)
		}
	}
}

// TestAuditCadence: the periodic invariant audit fires on schedule.
func TestAuditCadence(t *testing.T) {
	sys := psbox.NewAM57(1)
	app := sys.Kernel.NewApp("worker")
	app.Spawn("spin", 0, psbox.Loop(
		psbox.Compute{Cycles: 1e6},
		psbox.Sleep{D: 2 * psbox.Millisecond},
	))
	sys.SetAuditEvery(10 * psbox.Millisecond)
	sys.Run(100 * psbox.Millisecond)
	if got := sys.Audits(); got != 10 {
		t.Fatalf("audits = %d, want 10", got)
	}
	sys.SetAuditEvery(0) // disable
	sys.Run(50 * psbox.Millisecond)
	if got := sys.Audits(); got != 10 {
		t.Fatalf("audits after disable = %d, want 10", got)
	}
}

// TestRestoreVerifiesEverySection: the checkpoint registry is the one
// replay-twin verifier. A one-byte change to any section's payload,
// re-framed with a fresh CRC so that it passes Parse, must fail
// System.Restore naming exactly that section and byte. The System carries
// every optional section: tracing and profiling, the sandbox manager with
// a live session, armed faults and one section registered by the
// embedding program.
func TestRestoreVerifiesEverySection(t *testing.T) {
	horizon := 60 * psbox.Millisecond
	sys := buildCrashSystem(7, horizon, "nic-flap", nil)
	sys.EnableProfiling()
	if _, err := sys.Sandboxes().Launch(sandbox.Spec{Name: "spin", BudgetW: 2, Start: func(app *psbox.App) {
		app.Spawn("spin", 1, psbox.Loop(psbox.Compute{Cycles: 5e5}, psbox.Sleep{D: 3 * psbox.Millisecond}))
	}}); err != nil {
		t.Fatal(err)
	}
	sys.RegisterSnapshotter("extra", func(enc *snapshot.Encoder) { enc.U64(42) })
	sys.Run(horizon)
	sys.FoldProfile()

	ckpt := sys.Snapshot()
	if err := sys.Restore(ckpt); err != nil {
		t.Fatalf("restore of its own checkpoint: %v", err)
	}
	secs, err := snapshot.Parse(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	var labels []string
	for _, s := range secs {
		labels = append(labels, s.Label)
	}
	want := "sim hw/cpu hw/dsp hw/gpu hw/wifi hw/display hw/gps hw/dram kernel kernel/sched kernel/accel/dsp kernel/accel/gpu " +
		"kernel/net meter core core/invariants faults obs obs/profile account sandbox extra"
	if got := strings.Join(labels, " "); got != want {
		t.Fatalf("sections = %s\nwant       %s", got, want)
	}

	for i, s := range secs {
		if len(s.Payload) == 0 {
			continue
		}
		at := len(s.Payload) / 2
		reg := snapshot.NewRegistry()
		for j, o := range secs {
			payload := o.Payload
			if j == i {
				payload = bytes.Clone(payload)
				payload[at] ^= 0xff
			}
			reg.Add(o.Label, func(enc *snapshot.Encoder) {
				for _, b := range payload {
					enc.U8(b)
				}
			})
		}
		want := fmt.Sprintf("snapshot: section %q: live state diverges from checkpoint at byte %d (checkpoint %d bytes, live %d bytes)",
			s.Label, at, len(s.Payload), len(s.Payload))
		if err := sys.Restore(reg.Checkpoint()); err == nil || err.Error() != want {
			t.Errorf("section %q flipped at byte %d: Restore error = %v\nwant %s", s.Label, at, err, want)
		}
	}
}
