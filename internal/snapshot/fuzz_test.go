package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// fuzzCheckpoint builds the well-formed two-section checkpoint the fuzz
// targets mutate away from.
func fuzzCheckpoint() ([]byte, *Registry) {
	r := buildRegistry(&fakeLayer{value: 11, text: "alpha"}, &fakeLayer{value: 22, text: "beta"})
	return r.Checkpoint(), r
}

// resealCRC recomputes a mutated checkpoint's trailer so the mutation
// reaches the framing decoder instead of dying at the CRC gate.
func resealCRC(data []byte) []byte {
	if len(data) < 4 {
		return data
	}
	out := append([]byte(nil), data...)
	binary.BigEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[:len(out)-4]))
	return out
}

// FuzzRestore feeds arbitrary bytes through the full hostile-input
// surface — Parse's framing decoder, Registry.Restore's byte comparison of
// each section against its live re-encoding, and Diff. The contract under
// fuzz: malformed input may only ever return an error. No panic, no
// runtime fault, and no allocation sized by an unvalidated length field.
func FuzzRestore(f *testing.F) {
	valid, _ := fuzzCheckpoint()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add(valid[:len(valid)/2])          // truncated mid-section
	f.Add(valid[:len(valid)-1])          // missing one trailer byte
	f.Add(bytes.Repeat(valid, 2))        // trailing garbage with a stale CRC
	f.Add(resealCRC(valid[:len(valid)])) // identity reseal

	// A hostile section count with a valid CRC: claims 2^32-1 sections in
	// a body that can frame none. This is the seed that must hit the
	// count-vs-remaining guard, not a giant preallocation.
	hostile := append([]byte(Magic), 0, 1) // version 1
	hostile = binary.BigEndian.AppendUint32(hostile, 0xffffffff)
	f.Add(resealCRC(append(hostile, 0, 0, 0, 0)))

	// An oversized string length inside an otherwise valid frame.
	overlong := append([]byte(nil), valid[:len(valid)-4]...)
	binary.BigEndian.PutUint32(overlong[len(Magic)+2+4:], 0x7fffffff)
	f.Add(resealCRC(append(overlong, 0, 0, 0, 0)))

	f.Fuzz(func(t *testing.T, data []byte) {
		secs, err := Parse(data)
		if err != nil && secs != nil {
			t.Fatal("Parse returned sections alongside an error")
		}
		if err == nil {
			// A successful parse must be stable and re-frameable.
			again, err2 := Parse(data)
			if err2 != nil {
				t.Fatalf("second Parse of accepted input failed: %v", err2)
			}
			if len(again) != len(secs) {
				t.Fatalf("Parse is nondeterministic: %d then %d sections", len(secs), len(again))
			}
		}

		// Restore against a live registry: errors only, never a panic,
		// whatever the payloads hold.
		valid, reg := fuzzCheckpoint()
		_ = reg.Restore(data)

		// Diff in both positions, including unparseable inputs.
		_ = Diff(data, valid)
		_ = Diff(valid, data)
		_ = Diff(data, data)

		// Drain a raw decoder over the input with the reads Parse makes:
		// sticky errors must hold, reads past the end must return zeros.
		d := &decoder{buf: data}
		for d.err == nil && d.remaining() > 0 {
			switch d.u16() % 3 {
			case 0:
				d.u32()
			case 1:
				d.str()
			case 2:
				d.blob()
			}
		}
	})
}
