//go:build !race

package all

// raceEnabled reports a build with the race detector, under which the
// repetition walls run fewer times.
const raceEnabled = false
