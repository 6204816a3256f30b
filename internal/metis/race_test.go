//go:build race

package metis

func init() { raceEnabled = true }
