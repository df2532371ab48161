//go:build !race

package serve

// raceEnabled reports that the race detector is instrumenting this build.
const raceEnabled = false
