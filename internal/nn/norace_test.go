//go:build !race

package nn

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
