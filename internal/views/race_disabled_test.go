//go:build !race

package views

const raceEnabled = false
