//go:build !race

package udptrans

const raceEnabled = false
