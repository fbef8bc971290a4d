//go:build race

package rpc

// raceEnabled reports a -race build. Storage an exchange releases is
// poisoned there (frameBufs.trim fills both frame buffers with 0xA5), so
// a read after release sees garbage instead of a plausible frame. Under
// -race sync.Pool also drops items at random, so allocation pins do not
// hold.
const raceEnabled = true
