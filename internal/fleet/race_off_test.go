//go:build !race

package fleet

// raceEnabled reports that this test binary was built with the race
// detector, which multiplies the host cost of a long simulated horizon.
const raceEnabled = false
