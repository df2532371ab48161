//go:build race

package serve

// raceEnabled reports that the race detector is instrumenting this build;
// allocation-count assertions are skipped under it (sync.Pool drops items
// randomly when instrumented, so AllocsPerRun is not meaningful).
const raceEnabled = true
