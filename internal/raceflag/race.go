//go:build race

package raceflag

// Enabled: see norace.go.
const Enabled = true
