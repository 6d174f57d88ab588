//go:build race

package wire

// raceEnabled: under the race detector sync.Pool drops a share of its Puts
// on purpose, so allocation counts through msgPool are not meaningful.
const raceEnabled = true
