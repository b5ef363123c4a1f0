//go:build !race

package topology

// raceEnabled reports a -race build (race_test.go has the reason).
const raceEnabled = false
