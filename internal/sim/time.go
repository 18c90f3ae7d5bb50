// Package sim provides the discrete-event simulation kernel used by every
// component model in this repository: a deterministic event queue, a
// simulated clock, and a seeded random number generator.
//
// All simulated time is expressed as Time, an int64 count of nanoseconds
// since the start of the simulation. Events scheduled for the same instant
// fire in the order they were scheduled, which makes every run of a given
// configuration bit-for-bit reproducible.
package sim

import "fmt"

// Time is a simulated instant or duration in nanoseconds.
type Time int64

// Convenient duration units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Milliseconds reports t as a floating-point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Microseconds reports t as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders the time with an adaptive unit, e.g. "16.667ms".
func (t Time) String() string {
	switch {
	case t < 0:
		return fmt.Sprintf("-%v", -t)
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", t.Microseconds())
	case t < Second:
		return fmt.Sprintf("%.3fms", t.Milliseconds())
	default:
		return fmt.Sprintf("%.6fs", t.Seconds())
	}
}

// FPS converts a frame rate into the period between frames.
// FPS(60) is 16.666667ms.
func FPS(framesPerSecond float64) Time {
	if framesPerSecond <= 0 {
		return 0
	}
	return Time(float64(Second) / framesPerSecond)
}

// BytesOver returns the time needed to move n bytes at rate bytes/second.
// A non-positive rate yields zero time (infinite bandwidth).
func BytesOver(n int64, bytesPerSecond float64) Time {
	if bytesPerSecond <= 0 || n <= 0 {
		return 0
	}
	return Time(float64(n) / bytesPerSecond * float64(Second))
}
