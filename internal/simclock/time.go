package simclock

import (
	"fmt"
	"time"
)

// Time is an instant in virtual time, in nanoseconds since the start of
// the experiment. The zero Time is the experiment epoch.
type Time int64

// Add returns t shifted forward by d (backward if d is negative).
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t−u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// Seconds returns t as a floating-point number of seconds since epoch.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// Minutes returns t as a floating-point number of minutes since epoch.
func (t Time) Minutes() float64 { return float64(t) / float64(time.Minute) }

// Duration converts the instant to the duration elapsed since epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String formats the instant as an elapsed duration, e.g. "1m3.25s".
func (t Time) String() string {
	if t < 0 {
		return fmt.Sprintf("-%v", time.Duration(-t))
	}
	return time.Duration(t).String()
}

// MaxTime is the largest representable instant; used as "never".
const MaxTime = Time(1<<63 - 1)

// MinTime is the smallest representable instant.
const MinTime = Time(-1 << 63)

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Min returns the earlier of a and b.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}
