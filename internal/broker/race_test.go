//go:build race

package broker

// raceEnabled reports a -race build, whose sync.Pool drops items at random
// and so makes allocation counts vary.
const raceEnabled = true
