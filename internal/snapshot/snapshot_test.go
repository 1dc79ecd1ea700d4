package snapshot

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"strings"
	"testing"
)

func crc32ChecksumForTest(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// TestEncodeDecodeRoundtrip pins every encoder primitive's wire bytes and
// reads them back through a checkpoint's framing.
func TestEncodeDecodeRoundtrip(t *testing.T) {
	encode := func(e *Encoder) {
		e.U8(7)
		e.U16(65500)
		e.U32(1 << 30)
		e.U64(1 << 60)
		e.I64(-42)
		e.F64(3.5)
		e.Bool(true)
		e.Bool(false)
		e.Str("hello")
		e.Len(3)
	}
	want := []byte{
		7,          // U8
		0xff, 0xdc, // U16 65500
		0x40, 0, 0, 0, // U32 1<<30
		0x10, 0, 0, 0, 0, 0, 0, 0, // U64 1<<60
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xd6, // I64 -42
		0x40, 0x0c, 0, 0, 0, 0, 0, 0, // F64 3.5
		1, 0, // Bool true, false
		0, 0, 0, 5, 'h', 'e', 'l', 'l', 'o', // Str
		0, 0, 0, 3, // Len
	}
	e := NewEncoder()
	encode(e)
	if !bytes.Equal(e.Data(), want) {
		t.Fatalf("encoded % x\nwant    % x", e.Data(), want)
	}

	r := NewRegistry()
	r.Add("layer", encode)
	secs, err := Parse(r.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) != 1 || secs[0].Label != "layer" || !bytes.Equal(secs[0].Payload, want) {
		t.Errorf("parsed sections = %+v, want one %q section with the encoded payload", secs, "layer")
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := &decoder{buf: []byte{1}}
	if got := d.u32(); got != 0 {
		t.Errorf("underflow u32 = %d, want 0", got)
	}
	if d.err == nil {
		t.Fatal("expected sticky error after underflow")
	}
	// Every further read stays zero-valued without panicking.
	if d.u16() != 0 || d.str() != "" || d.blob() != nil {
		t.Error("reads after error must return zero values")
	}
}

type fakeLayer struct {
	value uint64
	text  string
}

func (f *fakeLayer) Snapshot(e *Encoder) {
	e.U64(f.value)
	e.Str(f.text)
}

func buildRegistry(a, b *fakeLayer) *Registry {
	r := NewRegistry()
	r.Add("layer/a", a.Snapshot)
	r.Add("layer/b", b.Snapshot)
	return r
}

func TestCheckpointRestoreRoundtrip(t *testing.T) {
	a := &fakeLayer{value: 11, text: "alpha"}
	b := &fakeLayer{value: 22, text: "beta"}
	r := buildRegistry(a, b)
	ckpt := r.Checkpoint()

	// Same state verifies.
	if err := r.Restore(ckpt); err != nil {
		t.Fatalf("Restore of identical state: %v", err)
	}
	// Determinism: re-encoding yields identical bytes.
	if Diff(ckpt, r.Checkpoint()) != "" {
		t.Fatal("two checkpoints of the same state differ")
	}
	// Diverged state fails with the section named.
	b.value = 23
	err := r.Restore(ckpt)
	if err == nil {
		t.Fatal("Restore of diverged state succeeded")
	}
	if !strings.Contains(err.Error(), `"layer/b"`) {
		t.Errorf("error does not name the diverging section: %v", err)
	}
}

func TestParseRejectsCorruption(t *testing.T) {
	r := buildRegistry(&fakeLayer{value: 1}, &fakeLayer{value: 2})
	ckpt := r.Checkpoint()

	flipped := append([]byte(nil), ckpt...)
	flipped[len(flipped)/2] ^= 0xff
	if _, err := Parse(flipped); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Errorf("corrupted checkpoint: err = %v, want CRC mismatch", err)
	}

	short := ckpt[:4]
	if _, err := Parse(short); err == nil {
		t.Error("truncated checkpoint parsed")
	}

	// Wrong version must be rejected even with a valid CRC.
	body := append([]byte(nil), ckpt[:len(ckpt)-4]...)
	body[4], body[5] = 0xff, 0xfe
	e := &Encoder{buf: body}
	e.U32(crc32ChecksumForTest(body))
	if _, err := Parse(e.Data()); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future-version checkpoint: err = %v, want version rejection", err)
	}
}

func TestDiffNamesDivergingSection(t *testing.T) {
	a1 := &fakeLayer{value: 1, text: "x"}
	b1 := &fakeLayer{value: 2, text: "y"}
	c1 := buildRegistry(a1, b1).Checkpoint()

	a2 := &fakeLayer{value: 1, text: "x"}
	b2 := &fakeLayer{value: 2, text: "z"}
	c2 := buildRegistry(a2, b2).Checkpoint()

	d := Diff(c1, c2)
	if !strings.Contains(d, `"layer/b"`) {
		t.Errorf("Diff = %q, want it to name layer/b", d)
	}
	if Diff(c1, c1) != "" {
		t.Error("Diff of identical checkpoints not empty")
	}

	// When several sections diverge, Diff names the first in wire order,
	// not the alphabetically first label.
	mk := func(sim, account uint64) []byte {
		r := NewRegistry()
		r.Add("sim", (&fakeLayer{value: sim}).Snapshot)
		r.Add("account", (&fakeLayer{value: account}).Snapshot)
		return r.Checkpoint()
	}
	if d := Diff(mk(1, 1), mk(2, 2)); !strings.Contains(d, `"sim"`) {
		t.Errorf("Diff = %q, want it to name sim, the first diverging section in wire order", d)
	}
}

func TestRestoreRejectsSectionMismatch(t *testing.T) {
	full := buildRegistry(&fakeLayer{}, &fakeLayer{}).Checkpoint()
	partial := NewRegistry()
	partial.Add("layer/a", (&fakeLayer{}).Snapshot)
	if err := partial.Restore(full); err == nil {
		t.Error("section-count mismatch accepted")
	}
	renamed := NewRegistry()
	renamed.Add("layer/a", (&fakeLayer{}).Snapshot)
	renamed.Add("layer/c", (&fakeLayer{}).Snapshot)
	if err := renamed.Restore(full); err == nil {
		t.Error("section-label mismatch accepted")
	}
}

func TestFileRoundtripValidatesCRC(t *testing.T) {
	r := buildRegistry(&fakeLayer{value: 5}, &fakeLayer{value: 6})
	ckpt := r.Checkpoint()
	path := filepath.Join(t.TempDir(), "ckpt.psbx")
	if err := WriteFile(path, ckpt); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if Diff(ckpt, back) != "" {
		t.Error("file roundtrip changed bytes")
	}

	torn := append([]byte(nil), ckpt[:len(ckpt)-3]...)
	if err := WriteFile(path, torn); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Error("torn checkpoint file accepted")
	}
}

func TestVerifyReportsOffset(t *testing.T) {
	second := uint64(200)
	r := NewRegistry()
	r.Add("layer", func(e *Encoder) { e.U64(100); e.U64(second) })
	ckpt := r.Checkpoint()
	second = 201
	err := r.Restore(ckpt)
	if err == nil {
		t.Fatal("Restore of diverged state succeeded")
	}
	if !strings.Contains(err.Error(), "byte 15") {
		t.Errorf("err = %v, want divergence at byte 15", err)
	}
}

// referenceCheckpoint frames a registry the way a checkpoint was built
// before sections were written in place: each payload encoded by a fresh
// Encoder, then copied after its label and u32 length, then the CRC
// trailer.
func referenceCheckpoint(r *Registry) []byte {
	out := NewEncoder()
	out.buf = append(out.buf, Magic...)
	out.U16(Version)
	out.Len(len(r.secs))
	for _, s := range r.secs {
		payload := NewEncoder()
		s.snap(payload)
		out.Str(s.label)
		out.Len(len(payload.Data()))
		out.buf = append(out.buf, payload.Data()...)
	}
	out.U32(crc32.ChecksumIEEE(out.buf))
	return out.Data()
}

// seededRegistry registers an empty section, a handful of small ones and
// one over 1 MiB, in an order and with contents drawn from seed.
func seededRegistry(seed uint64) *Registry {
	next := func() uint64 { // splitmix64
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	sizes := []int{0, 1<<20 + int(next()%4096)}
	for i := 0; i < 6; i++ {
		sizes = append(sizes, 1+int(next()%200))
	}
	for i := len(sizes) - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		sizes[i], sizes[j] = sizes[j], sizes[i]
	}
	r := NewRegistry()
	for i, n := range sizes {
		payload := make([]byte, n)
		for j := range payload {
			payload[j] = byte(next())
		}
		r.Add(fmt.Sprintf("layer/%d", i), func(e *Encoder) {
			for _, b := range payload {
				e.U8(b)
			}
		})
	}
	return r
}

// TestCheckpointMatchesReferenceFraming: writing every section in place
// and back-patching its length yields exactly the bytes of the
// copy-per-section construction, whatever buffer size the caller asks
// for, and Restore accepts them. Sized from the previous checkpoint, the
// buffer never grows.
func TestCheckpointMatchesReferenceFraming(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		r := seededRegistry(seed)
		want := referenceCheckpoint(r)
		if got := r.Checkpoint(); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: Checkpoint differs from the reference framing: %s", seed, Diff(want, got))
		}
		n := len(want)
		for _, prev := range []int{1, n / 2, n - 1, n, 2 * n} {
			if got := r.CheckpointSized(prev); !bytes.Equal(got, want) {
				t.Fatalf("seed %d: CheckpointSized(%d) differs from the reference framing: %s", seed, prev, Diff(want, got))
			}
		}
		if got := r.CheckpointSized(n); cap(got) != n+n/8 {
			t.Errorf("seed %d: CheckpointSized(%d) has capacity %d, want %d: the buffer grew", seed, n, cap(got), n+n/8)
		}
		if err := r.Restore(want); err != nil {
			t.Fatalf("seed %d: Restore of the reference checkpoint: %v", seed, err)
		}
	}
}

// TestParsedPayloadsAliasTheCheckpoint: Parse copies no payload, and
// each payload's capacity ends where it does, so an append to one copies
// instead of writing over the checkpoint bytes after it.
func TestParsedPayloadsAliasTheCheckpoint(t *testing.T) {
	ckpt := seededRegistry(1).Checkpoint()
	secs, err := Parse(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	before := make([][]byte, len(secs))
	for i, s := range secs {
		before[i] = bytes.Clone(s.Payload)
	}
	for i := range ckpt {
		ckpt[i] ^= 0xff
	}
	for i, s := range secs {
		for j, b := range s.Payload {
			if b != before[i][j]^0xff {
				t.Fatalf("section %q: payload is a copy, not a view of the checkpoint", s.Label)
			}
		}
		if cap(s.Payload) != len(s.Payload) {
			t.Errorf("section %q: payload capacity %d runs past its %d bytes", s.Label, cap(s.Payload), len(s.Payload))
		}
	}
}
