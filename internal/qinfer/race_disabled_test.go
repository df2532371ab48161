//go:build !race

package qinfer

// raceEnabled reports that the race detector is instrumenting this build.
const raceEnabled = false
