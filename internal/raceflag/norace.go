//go:build !race

// Package raceflag tells tests whether the race detector is compiled in.
package raceflag

// Enabled lets allocation assertions skip themselves under the race
// detector, whose instrumentation allocates on paths that are clean in a
// normal build.
const Enabled = false
