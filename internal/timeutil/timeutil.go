// Package timeutil provides exact integer time arithmetic for the LET-DMA
// model. All instants and durations are expressed in integer nanoseconds so
// that hyperperiods, release instants and latency accumulations are computed
// without rounding. The DMA programming overhead used by the paper
// (o_DP = 3.36 us) is representable exactly at this resolution.
package timeutil

import (
	"fmt"
	"math"
	"time"
)

// Time is an instant or duration in integer nanoseconds.
type Time int64

// Convenient duration constructors.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Microseconds returns a Time of us microseconds.
func Microseconds(us int64) Time { return Time(us) * Microsecond }

// Milliseconds returns a Time of ms milliseconds.
func Milliseconds(ms int64) Time { return Time(ms) * Millisecond }

// Seconds returns a Time of s seconds.
func Seconds(s int64) Time { return Time(s) * Second }

// FromDuration converts a wall-clock time.Duration into model time. This
// is the single sanctioned bridge between the two domains (both count
// integer nanoseconds, so the conversion is exact); converting a Duration
// with a bare Time(...) conversion elsewhere is flagged by letvet's
// ticktime analyzer.
func FromDuration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Float64Us converts t to floating-point microseconds, for reporting only.
func (t Time) Float64Us() float64 { return float64(t) / float64(Microsecond) }

// String renders t with an adaptive unit, for logs and test failures.
func (t Time) String() string {
	switch {
	case t == 0:
		return "0"
	case t%Second == 0:
		return fmt.Sprintf("%ds", int64(t/Second))
	case t%Millisecond == 0:
		return fmt.Sprintf("%dms", int64(t/Millisecond))
	case t%Microsecond == 0:
		return fmt.Sprintf("%dus", int64(t/Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// GCD returns the greatest common divisor of a and b. GCD(0, x) = x.
// Negative inputs are treated by absolute value.
func GCD(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// LCM returns the least common multiple of a and b, or an error on overflow.
// LCM(0, x) is defined as 0.
func LCM(a, b int64) (int64, error) {
	if a == 0 || b == 0 {
		return 0, nil
	}
	g := GCD(a, b)
	q := a / g
	if q != 0 && abs64(q) > math.MaxInt64/abs64(b) {
		return 0, fmt.Errorf("timeutil: LCM(%d, %d) overflows int64", a, b)
	}
	l := q * b
	if l < 0 {
		l = -l
	}
	return l, nil
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// LCMAll returns the least common multiple of all values, or an error on
// overflow. LCMAll() of an empty slice is 0.
func LCMAll(vs ...int64) (int64, error) {
	var acc int64
	for i, v := range vs {
		if i == 0 {
			acc = abs64(v)
			continue
		}
		var err error
		acc, err = LCM(acc, v)
		if err != nil {
			return 0, err
		}
	}
	return acc, nil
}

// Hyperperiod returns the least common multiple of the given periods.
// It returns an error if any period is non-positive or the LCM overflows.
func Hyperperiod(periods ...Time) (Time, error) {
	if len(periods) == 0 {
		return 0, fmt.Errorf("timeutil: Hyperperiod of no periods")
	}
	vs := make([]int64, len(periods))
	for i, p := range periods {
		if p <= 0 {
			return 0, fmt.Errorf("timeutil: non-positive period %v", p)
		}
		vs[i] = int64(p)
	}
	l, err := LCMAll(vs...)
	if err != nil {
		return 0, err
	}
	return Time(l), nil
}

// CeilDiv returns ceil(a/b) for positive b.
func CeilDiv(a, b int64) int64 {
	if b <= 0 {
		panic("timeutil: CeilDiv requires positive divisor")
	}
	if a >= 0 {
		return (a + b - 1) / b
	}
	return a / b
}

// FloorDiv returns floor(a/b) for positive b.
func FloorDiv(a, b int64) int64 {
	if b <= 0 {
		panic("timeutil: FloorDiv requires positive divisor")
	}
	if a >= 0 {
		return a / b
	}
	return -((-a + b - 1) / b)
}
