//go:build !race

package rl

// raceEnabled mirrors race_test.go for the uninstrumented build.
const raceEnabled = false
