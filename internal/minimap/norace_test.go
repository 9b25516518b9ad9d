//go:build !race

package minimap

const raceEnabled = false
