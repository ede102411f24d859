//go:build race

package store

// raceEnabled reports that this test binary was built with -race, whose
// instrumentation inserts allocations and would make the alloc-regression
// assertions meaningless. CI runs those tests in a non-race job and fails
// if they report as skipped.
const raceEnabled = true
