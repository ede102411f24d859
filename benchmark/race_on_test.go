//go:build race

package main

// raceEnabled reports whether the race detector is compiled in; it slows
// the smoke run several times over, so the 15 s budget is not held to it.
const raceEnabled = true
