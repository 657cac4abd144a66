//go:build !race

package abr

// raceEnabled mirrors race_test.go for the uninstrumented build.
const raceEnabled = false
