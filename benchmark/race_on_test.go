//go:build race

package main

// raceEnabled reports whether the race detector instrumented this build;
// the quick smoke test skips under it (instrumented ops outrun their
// deadlines).
const raceEnabled = true
