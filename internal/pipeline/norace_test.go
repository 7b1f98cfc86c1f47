//go:build !race

package pipeline_test

// raceEnabled reports whether the test binary runs under the race
// detector.
const raceEnabled = false
