//go:build race

package critics

func init() { raceEnabled = true }
