//go:build !race

package consistency

// raceEnabled reports whether this test binary was built with -race; see
// race_on_test.go.
const raceEnabled = false
