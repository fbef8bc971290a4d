//go:build race

package coord

// raceEnabled reports a -race build. A recycled scatter state is
// poisoned there (scatterState.release), so a read after release sees a
// sentinel outcome instead of a plausible one. Under -race sync.Pool
// also drops items at random, so allocation pins do not hold.
const raceEnabled = true
