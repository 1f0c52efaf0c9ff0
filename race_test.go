//go:build race

package filaments_test

// raceEnabled reports a -race build, whose sync.Pool randomly drops
// entries, so allocation counts are not meaningful there.
const raceEnabled = true
