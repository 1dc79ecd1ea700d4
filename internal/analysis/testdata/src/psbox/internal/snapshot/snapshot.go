// Package snapshot is the fixture stub of the real checkpoint wire-format
// package: just enough surface for the snapshotstate analyzer fixtures to
// type-check (the analyzer matches parameter types by package path and
// type name, so the stub must live at the real import path).
package snapshot

// Encoder appends canonical big-endian fields to a checkpoint section.
type Encoder struct{ buf []byte }

func (e *Encoder) U64(v uint64)  {}
func (e *Encoder) I64(v int64)   {}
func (e *Encoder) F64(v float64) {}
func (e *Encoder) Bool(v bool)   {}
func (e *Encoder) Str(s string)  {}
func (e *Encoder) Len(n int)     {}
