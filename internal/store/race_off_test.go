//go:build !race

package store

// raceEnabled reports whether this test binary was built with -race; see
// race_on_test.go.
const raceEnabled = false
