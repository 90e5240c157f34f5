//go:build race

package partops

// raceEnabled reports that the race detector instruments this build; the
// engine then runs nodes on goroutines and its bookkeeping allocates, so the
// allocation guard runs only in non-race builds.
const raceEnabled = true
