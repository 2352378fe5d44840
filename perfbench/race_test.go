//go:build race

package main

// raceEnabled reports a -race build, whose runtime allocates on its own.
const raceEnabled = true
