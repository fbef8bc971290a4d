//go:build race

package retrieval

// raceEnabled reports a -race build, in which storage handed out for
// reuse is poisoned first (RankBuf.Carve), so a read after release
// returns a visibly wrong ranking instead of a plausible one.
const raceEnabled = true
