//go:build !race

package mqttclient

const raceEnabled = false
