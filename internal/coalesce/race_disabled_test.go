//go:build !race

package coalesce

const raceEnabled = false
