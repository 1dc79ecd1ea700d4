// Package a mixes live and dead waivers for the staleallows check.
//
//psbox:allow-maporder file-wide waiver left over from a deleted loop
package a

import (
	"time"

	"psbox/internal/snapshot"
)

func used() time.Time {
	//psbox:allow-nowallclock host-side profiling helper, not on the sim path
	return time.Now()
}

func staleLine() int {
	//psbox:allow-nowallclock the clock read below was removed in a refactor
	return 1
}

func staleTrailing() (n int) {
	n = 2 //psbox:allow-energyaccum accumulator was renamed away
	return n
}

// encoded's snapshot method encodes n, so its waiver excuses nothing.
type encoded struct {
	//psbox:allow-snapshotstate stale: the snapshot method below encodes n
	n int64
}

func (e *encoded) snapshot(enc *snapshot.Encoder) { enc.I64(e.n) }
