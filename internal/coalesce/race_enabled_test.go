//go:build race

package coalesce

// raceEnabled reports a -race build: sync.Pool drops items at random
// under the race detector, so allocation pins do not hold there.
const raceEnabled = true
