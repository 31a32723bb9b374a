//go:build race

package server

// raceEnabled: the race detector's sync.Pool drops a share of what is put
// back, so allocation counts of pooled paths are not the ones shipped.
const raceEnabled = true
