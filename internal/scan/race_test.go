//go:build race

package scan

func init() { raceEnabled = true }
