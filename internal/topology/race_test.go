//go:build race

package topology

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop pooled items at random, on purpose, so scratch a pool hands back is
// sometimes fresh: allocation counts of pooled paths are asserted only
// without it.
const raceEnabled = true
