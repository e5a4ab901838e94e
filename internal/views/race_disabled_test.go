//go:build !race

package views_test

const raceEnabled = false
