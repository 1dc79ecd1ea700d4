// Package snapshot implements psbox's versioned, deterministic
// checkpoint/restore encoding (DESIGN.md §"Checkpoint/restore").
//
// A checkpoint is a canonical byte string: a fixed header (magic "PSBX",
// format version), an ordered list of labelled sections — one per stateful
// layer of the simulated stack — and a CRC-32 trailer over everything
// before it. Every multi-byte integer is big-endian and fixed-width;
// floats are their IEEE-754 bit patterns; strings and byte blobs are
// length-prefixed. Two systems in the same state therefore encode to the
// same bytes, and byte comparison of checkpoints IS state comparison.
//
// Restore follows the replay-twin contract (DESIGN.md): a checkpoint is
// never "applied" to a live system. The caller deterministically rebuilds
// the scenario, replays it to the checkpoint instant, and Registry.Restore
// re-encodes every registered layer's live state and byte-compares it
// against that section's payload, failing loudly at the first divergence.
// Applying state would silently mask replay divergence; verification makes
// the restore guarantee checkable.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
)

// Magic opens every checkpoint.
const Magic = "PSBX"

// Version is the current wire-format version. Bump on any encoding change;
// Restore rejects checkpoints from other versions.
const Version uint16 = 1

// An Encoder builds one section's canonical payload. Encoders are
// single-goroutine: interleaved appends would scramble the wire format.
//
//psbox:confined
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Data returns the encoded bytes so far.
func (e *Encoder) Data() []byte { return e.buf }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U16 appends a big-endian uint16.
func (e *Encoder) U16(v uint16) { e.buf = binary.BigEndian.AppendUint16(e.buf, v) }

// U32 appends a big-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }

// U64 appends a big-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }

// I64 appends a big-endian int64 (two's complement).
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// F64 appends a float64 as its IEEE-754 bit pattern.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends 1 or 0.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Len appends a non-negative count as uint32. Collections are always
// count-prefixed; a negative count is a caller bug.
func (e *Encoder) Len(n int) {
	if n < 0 || int64(n) > math.MaxUint32 {
		panic(fmt.Sprintf("snapshot: collection length %d out of range", n))
	}
	e.U32(uint32(n))
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.Len(len(s))
	e.buf = append(e.buf, s...)
}

// Blob appends a length-prefixed byte slice.
func (e *Encoder) Blob(b []byte) {
	e.Len(len(b))
	e.buf = append(e.buf, b...)
}

// A decoder reads a checkpoint's framing back for Parse. Errors are
// sticky: after the first underflow every further read returns zero values
// and err reports the failure. Like the Encoder, a decoder belongs to one
// goroutine: the read cursor and sticky error are unsynchronized.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) remaining() int { return len(d.buf) - d.off }

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 {
		d.err = fmt.Errorf("snapshot: negative length %d at offset %d", n, d.off)
		return nil
	}
	if d.remaining() < n {
		d.err = fmt.Errorf("snapshot: truncated payload: need %d bytes at offset %d, have %d", n, d.off, d.remaining())
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// str reads a length-prefixed string.
func (d *decoder) str() string { return string(d.take(int(d.u32()))) }

// blob reads a length-prefixed byte slice into a fresh copy.
func (d *decoder) blob() []byte {
	b := d.take(int(d.u32()))
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// A section is one registered layer: its label and the function that
// writes its canonical encoding.
type section struct {
	label string
	snap  func(*Encoder)
}

// encode runs the layer's encoder over a fresh payload.
func (s section) encode() []byte {
	e := NewEncoder()
	s.snap(e)
	return e.Data()
}

// A Registry is the ordered list of a system's stateful layers. The
// registration order is part of the wire format: Checkpoint emits sections
// in it, and Restore requires the checkpoint's section list to match it
// exactly.
type Registry struct {
	secs   []section
	labels map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{labels: make(map[string]bool)} }

// Add registers one layer under a unique label, given as the function that
// encodes its live state (usually the layer's Snapshot method).
func (r *Registry) Add(label string, snap func(*Encoder)) {
	if r.labels[label] {
		panic(fmt.Sprintf("snapshot: duplicate section label %q", label))
	}
	r.labels[label] = true
	r.secs = append(r.secs, section{label: label, snap: snap})
}

// Checkpoint encodes every registered section into one framed, checksummed
// checkpoint.
func (r *Registry) Checkpoint() []byte {
	e := NewEncoder()
	e.buf = append(e.buf, Magic...)
	e.U16(Version)
	e.Len(len(r.secs))
	for _, s := range r.secs {
		e.Str(s.label)
		e.Blob(s.encode())
	}
	e.U32(crc32.ChecksumIEEE(e.buf))
	return e.Data()
}

// A Section is one decoded checkpoint section.
type Section struct {
	Label   string
	Payload []byte
}

// Parse validates a checkpoint's framing — magic, version, CRC — and
// returns its sections.
func Parse(data []byte) ([]Section, error) {
	if len(data) < len(Magic)+2+4+4 {
		return nil, fmt.Errorf("snapshot: checkpoint too short (%d bytes)", len(data))
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.BigEndian.Uint32(trailer), crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("snapshot: CRC mismatch: trailer %08x, computed %08x", got, want)
	}
	d := &decoder{buf: body}
	if string(d.take(len(Magic))) != Magic {
		return nil, fmt.Errorf("snapshot: bad magic")
	}
	if v := d.u16(); v != Version {
		return nil, fmt.Errorf("snapshot: format version %d, this build reads version %d", v, Version)
	}
	n := d.u32()
	// Every section costs at least 8 framing bytes (the label and payload
	// length prefixes), which bounds how many the remaining body can hold.
	// Checking before the preallocation keeps a hostile count field from
	// sizing an allocation the data could never fill. The count stays a
	// uint32: on 32-bit platforms int(n) turns a count past 2³¹−1
	// negative, which would pass the bound and panic in make.
	if maxSecs := d.remaining() / 8; int64(n) > int64(maxSecs) {
		return nil, fmt.Errorf("snapshot: section count %d exceeds what %d remaining bytes can frame", n, d.remaining())
	}
	secs := make([]Section, 0, n)
	for i := uint32(0); i < n; i++ {
		label := d.str()
		payload := d.blob()
		if d.err != nil {
			return nil, fmt.Errorf("snapshot: section %d: %w", i, d.err)
		}
		secs = append(secs, Section{Label: label, Payload: payload})
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("snapshot: %d trailing bytes after %d sections", d.remaining(), n)
	}
	if d.err != nil {
		return nil, d.err
	}
	return secs, nil
}

// Restore checks a checkpoint against the registered layers under the
// replay-twin contract: framing and CRC first, then the section list
// (labels and order must match the registry exactly), then each layer's
// live state, encoded from scratch and byte-compared with its payload.
// The first divergence is reported with its section and offset.
func (r *Registry) Restore(data []byte) error {
	secs, err := Parse(data)
	if err != nil {
		return err
	}
	if len(secs) != len(r.secs) {
		return fmt.Errorf("snapshot: checkpoint has %d sections, registry has %d", len(secs), len(r.secs))
	}
	for i, s := range secs {
		reg := r.secs[i]
		if s.Label != reg.label {
			return fmt.Errorf("snapshot: section %d is %q, registry expects %q", i, s.Label, reg.label)
		}
		if live := reg.encode(); !bytes.Equal(s.Payload, live) {
			return fmt.Errorf("snapshot: section %q: live state diverges from checkpoint at byte %d (checkpoint %d bytes, live %d bytes)",
				s.Label, firstDiff(s.Payload, live), len(s.Payload), len(live))
		}
	}
	return nil
}

// Diff describes where two checkpoints first diverge, section by section —
// the lockstep divergence detector's failure report. Sections are compared
// in the first checkpoint's wire order, then the labels only the second
// one has, so the report names the earliest diverging layer. It returns ""
// when the checkpoints are byte-identical.
func Diff(a, b []byte) string {
	if bytes.Equal(a, b) {
		return ""
	}
	sa, errA := Parse(a)
	sb, errB := Parse(b)
	if errA != nil || errB != nil {
		return fmt.Sprintf("checkpoints differ and at least one is unparseable (a: %v, b: %v)", errA, errB)
	}
	inB := make(map[string][]byte, len(sb))
	for _, s := range sb {
		inB[s.Label] = s.Payload
	}
	inA := make(map[string]bool, len(sa))
	for _, s := range sa {
		inA[s.Label] = true
		pb, ok := inB[s.Label]
		switch {
		case !ok:
			return fmt.Sprintf("section %q present only in first checkpoint", s.Label)
		case !bytes.Equal(s.Payload, pb):
			return fmt.Sprintf("section %q diverges at byte %d (%d vs %d bytes)",
				s.Label, firstDiff(s.Payload, pb), len(s.Payload), len(pb))
		}
	}
	for _, s := range sb {
		if !inA[s.Label] {
			return fmt.Sprintf("section %q present only in second checkpoint", s.Label)
		}
	}
	return "checkpoints differ only in framing (section order or count)"
}

// WriteFile writes a checkpoint to disk.
func WriteFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// ReadFile reads a checkpoint back and validates its framing and CRC, so a
// torn or corrupted file is rejected before any restore is attempted.
func ReadFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if _, err := Parse(data); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return data, nil
}
