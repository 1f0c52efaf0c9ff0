//go:build !race

package filaments_test

const raceEnabled = false
