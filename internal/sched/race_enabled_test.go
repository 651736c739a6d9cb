//go:build race

package sched

// raceEnabled skips allocation assertions under the race detector, whose
// instrumentation allocates on paths that are clean in a normal build.
const raceEnabled = true
