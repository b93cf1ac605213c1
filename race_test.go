//go:build race

package looppart

func init() { raceDetector = true }
