//go:build race

package mqttclient

// raceEnabled reports a -race build, whose sync.Pool drops items at random
// and so makes allocation counts vary.
const raceEnabled = true
