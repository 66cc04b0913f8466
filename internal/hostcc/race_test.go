//go:build race

package hostcc

// raceEnabled reports a race-detector build, under which sync.Pool
// drops items at random and allocation counts are not the program's.
const raceEnabled = true
