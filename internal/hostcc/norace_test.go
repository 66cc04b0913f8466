//go:build !race

package hostcc

const raceEnabled = false
