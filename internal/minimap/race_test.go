//go:build race

package minimap

// raceEnabled reports a -race build, under which sync.Pool drops pooled
// items at random.
const raceEnabled = true
