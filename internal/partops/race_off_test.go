//go:build !race

package partops

const raceEnabled = false
