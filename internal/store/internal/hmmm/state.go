// Package hmmm holds the level-1 state layout a "model" record carries.
// gob writes a struct's type name and field names, and names an unnamed
// slice type by its Go spelling, package name included: a record's
// state list is a "[]hmmm.State" of "State" structs with five fields.
// The model's own hmmm.State holds two of them, so the store writes and
// reads records through this package's State, which keeps the name, the
// package name and the fields.
package hmmm

import "github.com/videodb/hmmm/internal/videomodel"

// State is one level-1 state as a "model" record carries it: the shot
// and events the model's state holds, plus the video index, local index
// and start time the model derives or holds in a column.
type State struct {
	Shot     videomodel.ShotID
	VideoIdx int
	LocalIdx int
	Events   []videomodel.Event
	StartMS  int
}
