//go:build race

package views_test

// raceEnabled reports whether the race detector is active; its runtime
// instrumentation changes allocation counts, so alloc-pinning tests skip.
const raceEnabled = true
