// Package heartbeat implements the Application Heartbeats framework of
// Hoffmann et al. [4], the observation channel of HARS's self-adaptive loop.
//
// A self-adaptive application emits a heartbeat each time it finishes a unit
// of work. The monitor records each beat with its index and timestamp and
// derives three rates: the instantaneous rate between consecutive beats, a
// windowed rate over the last W beats (what the HARS runtime manager
// compares against the target), and the global rate since the first beat.
// The application (or an external manager) registers a performance target as
// a (min, avg, max) band; HARS adapts whenever |rate − avg| > (max − min)/2.
package heartbeat

import (
	"fmt"
	"math"
)

// Time is a timestamp in microseconds, matching the simulator's clock.
type Time = int64

// Second is one second in heartbeat timestamps.
const Second Time = 1_000_000

// Target is a user-specified performance goal in heartbeats per second.
// HARS's evaluation sets Avg to a fraction of the maximum achievable rate
// and Min/Max to ±5% of that maximum around it.
type Target struct {
	Min float64 // minimum acceptable rate (t.min)
	Avg float64 // desired rate (t.avg)
	Max float64 // maximum useful rate (t.max)
}

// Band returns the half-width (max−min)/2 of the target band, the adaptation
// trigger threshold of the paper's Algorithm 1.
func (t Target) Band() float64 { return (t.Max - t.Min) / 2 }

// TargetAround builds the paper's ±band target around a desired rate:
// Avg = frac·max, Min/Max = (frac∓band)·max.
func TargetAround(maxRate, frac, band float64) Target {
	return Target{
		Min: (frac - band) * maxRate,
		Avg: frac * maxRate,
		Max: (frac + band) * maxRate,
	}
}

// Valid reports whether the target is a well-formed band.
func (t Target) Valid() bool {
	return t.Min > 0 && t.Min <= t.Avg && t.Avg <= t.Max
}

// Record is one logged heartbeat.
type Record struct {
	Index       int64   // 0-based heartbeat index
	Time        Time    // emission timestamp (µs)
	InstantRate float64 // rate vs. the previous beat (beats/s)
	WindowRate  float64 // rate over the trailing window (beats/s)
	GlobalRate  float64 // rate since the first beat (beats/s)
}

// Monitor is the heartbeat registry for one application.
//
// Monitor is not safe for concurrent use: within the simulator every call
// happens on the one simulation goroutine, which reads the latest record
// and count on every control step, so the monitor takes no lock.
// live.Controller, whose heartbeats arrive from many goroutines, serializes
// its calls itself.
type Monitor struct {
	name   string
	window int
	target Target

	// times holds the timestamps of all beats. Experiments are bounded
	// (minutes of simulated time at a few beats per second), so an append-only
	// log is fine and keeps the whole history inspectable.
	times   []Time
	records []Record
}

// NewMonitor creates a monitor using a trailing window of `window` beats for
// the windowed rate. Window must be ≥ 2; smaller values are raised to 2.
func NewMonitor(name string, window int) *Monitor {
	if window < 2 {
		window = 2
	}
	return &Monitor{name: name, window: window}
}

// Clone returns an independent deep copy of the monitor: same name, window,
// target, and beat history, sharing no mutable state with the original.
// Checkpoint snapshots use it so a restored incarnation's rate history
// diverges from the donor's from the snapshot point on.
func (m *Monitor) Clone() *Monitor {
	c := &Monitor{name: m.name, window: m.window, target: m.target}
	c.times = append(c.times, m.times...)
	c.records = append(c.records, m.records...)
	return c
}

// Name returns the application name the monitor was registered with.
func (m *Monitor) Name() string { return m.name }

// Window returns the window length in beats.
func (m *Monitor) Window() int { return m.window }

// SetTarget registers the application's performance target.
func (m *Monitor) SetTarget(t Target) {
	m.target = t
}

// Target returns the registered performance target.
func (m *Monitor) Target() Target {
	return m.target
}

// Beat registers a heartbeat at the given timestamp and returns its record.
func (m *Monitor) Beat(now Time) Record {
	idx := int64(len(m.times))
	m.times = append(m.times, now)
	r := Record{Index: idx, Time: now}
	if idx > 0 {
		r.InstantRate = rateBetween(m.times[idx-1], now, 1)
		first := m.times[0]
		r.GlobalRate = rateBetween(first, now, idx)
		w := int64(m.window)
		if idx >= w {
			r.WindowRate = rateBetween(m.times[idx-w], now, w)
		} else {
			r.WindowRate = r.GlobalRate
		}
	}
	m.records = append(m.records, r)
	return r
}

func rateBetween(t0, t1 Time, beats int64) float64 {
	dt := t1 - t0
	if dt <= 0 {
		return math.Inf(1)
	}
	return float64(beats) * float64(Second) / float64(dt)
}

// Count returns the number of beats recorded so far.
func (m *Monitor) Count() int64 {
	return int64(len(m.times))
}

// Latest returns the most recent record, or ok=false if none exists.
func (m *Monitor) Latest() (Record, bool) {
	if len(m.records) == 0 {
		return Record{}, false
	}
	return m.records[len(m.records)-1], true
}

// At returns the record at the given beat index.
func (m *Monitor) At(index int64) (Record, bool) {
	if index < 0 || index >= int64(len(m.records)) {
		return Record{}, false
	}
	return m.records[index], true
}

// Records returns a copy of all records.
func (m *Monitor) Records() []Record {
	return append([]Record(nil), m.records...)
}

// RateOver returns the average rate (beats/s) over the time span
// [from, to): the number of beats with from ≤ t < to divided by the span.
func (m *Monitor) RateOver(from, to Time) float64 {
	if to <= from {
		return 0
	}
	n := 0
	for _, t := range m.times {
		if t >= from && t < to {
			n++
		}
	}
	return float64(n) * float64(Second) / float64(to-from)
}

// NormalizedPerf returns the paper's normalized performance min(g, h)/g for
// observed rate h against target average g: overperformance earns no credit.
func NormalizedPerf(target Target, rate float64) float64 {
	if target.Avg <= 0 {
		return 0
	}
	// Branch instead of math.Min: this sits inside the search function's
	// per-candidate scoring loop, and the operands are never NaN.
	if rate < target.Avg {
		return rate / target.Avg
	}
	return 1
}

// Satisfaction classifies a rate against a target band, the three-way state
// MP-HARS's decision table (Table 4.3) operates on.
type Satisfaction int

// The three performance-satisfaction states.
const (
	Underperf Satisfaction = iota // rate < Min
	Achieve                       // Min ≤ rate ≤ Max
	Overperf                      // rate > Max
)

// String renders the satisfaction state like the paper's Table 4.3.
func (s Satisfaction) String() string {
	switch s {
	case Underperf:
		return "Underperf"
	case Achieve:
		return "Achieve"
	case Overperf:
		return "Overperf"
	}
	return fmt.Sprintf("Satisfaction(%d)", int(s))
}

// Classify returns the satisfaction state of rate against the target band.
func Classify(target Target, rate float64) Satisfaction {
	switch {
	case rate < target.Min:
		return Underperf
	case rate > target.Max:
		return Overperf
	default:
		return Achieve
	}
}

// OutsideBand reports whether the adaptation trigger of Algorithm 1 fires:
// |rate − t.avg| > (t.max − t.min)/2.
func OutsideBand(target Target, rate float64) bool {
	return math.Abs(rate-target.Avg) > target.Band()
}
