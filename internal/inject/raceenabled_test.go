//go:build race

package inject

// raceEnabled reports whether the race detector is compiled in; the plan
// allocation guard skips itself under -race, where instrumentation slows
// the campaign-wide plan tenfold and the guard runs in `make alloc`.
const raceEnabled = true
