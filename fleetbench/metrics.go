package main

import (
	"math"
	"sort"
)

// metric describes one reported number. Bound applies to end-to-end
// metrics only: the share of the baseline median by which the metric may
// worsen before a change counts as a regression. A simulated metric is an
// output of the model, not a host measurement, so it repeats exactly for
// a seed. BENCHMARK.json at the
// repository root carries the same table; a test keeps the two equal.
type metric struct {
	name      string
	unit      string
	better    string // "higher" or "lower"
	bound     float64
	simulated bool
}

// endToEnd are the numbers a user of hars-scenario sees, measured on the
// CLI process with tracing off. Run failures are not a metric here: the
// result line reports them as attempted and failed runs.
var endToEnd = []metric{
	{name: "sim_node_s_per_s", unit: "node-s/s", better: "higher", bound: 0.25},
	{name: "cpu_s", unit: "s", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.15},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	// Bounds of the simulated metrics cover only their seed-to-seed
	// spread (at most 6% over ten seeds on every workload).
	{name: "hb_per_j", unit: "hb/J", better: "higher", bound: 0.15, simulated: true},
	{name: "slo_miss_frac", unit: "fraction", better: "lower", bound: 0.15, simulated: true},
}

// perLayer are the traced run's numbers, each measured from outside the
// program around calls into one layer's public API. The layer → workload →
// end-to-end map is in README.md.
var perLayer = []metric{
	{name: "scenario.decode_ms", unit: "ms", better: "lower"},
	{name: "scenario.run_ms", unit: "ms", better: "lower"},
	{name: "scenario.trace_mb", unit: "MiB", better: "lower"},
	{name: "scenario.trace_write_ms", unit: "ms", better: "lower"},
	{name: "scenario.alloc_mb", unit: "MiB", better: "lower"},
	{name: "scenario.mallocs_k", unit: "k", better: "lower"},
	{name: "sim.steady_speedup", unit: "ratio", better: "higher"},
	{name: "sim.host_us_per_busy_core_s", unit: "us/core-s", better: "lower"},
	{name: "sim.thread_migrations", unit: "count", better: "lower"},
	{name: "fleet.event_speedup", unit: "ratio", better: "higher"},
	{name: "fleet.wake_index_speedup", unit: "ratio", better: "higher"},
	{name: "fleet.workers2_speedup", unit: "ratio", better: "higher"},
	{name: "fleet.admissions", unit: "count", better: "higher"},
	{name: "fleet.migrations", unit: "count", better: "lower"},
	{name: "fleet.gated_migrations", unit: "count", better: "lower"},
	{name: "fleet.no_candidate", unit: "count", better: "lower"},
	{name: "fleet.queued", unit: "count", better: "lower"},
	{name: "fleet.dropped", unit: "count", better: "lower"},
	{name: "fleet.queue_wait_ms_mean", unit: "ms", better: "lower"},
	{name: "decision.trace_cost_frac", unit: "fraction", better: "lower"},
	{name: "decision.format_us_per_record", unit: "us", better: "lower"},
	{name: "thermal.cost_frac", unit: "fraction", better: "lower"},
	{name: "thermal.throttles", unit: "count", better: "lower"},
	{name: "thermal.trips", unit: "count", better: "lower"},
	{name: "fault.crashes", unit: "count", better: "lower"},
	{name: "fault.recoveries", unit: "count", better: "lower"},
	{name: "fault.transfer_fails", unit: "count", better: "lower"},
	{name: "fault.lost_work_s", unit: "s", better: "lower"},
	{name: "cpu.sim", unit: "fraction", better: "lower"},
	{name: "cpu.thermal", unit: "fraction", better: "lower"},
	{name: "cpu.fleet", unit: "fraction", better: "lower"},
	{name: "cpu.scenario", unit: "fraction", better: "lower"},
	{name: "cpu.core", unit: "fraction", better: "lower"},
	{name: "cpu.mphars", unit: "fraction", better: "lower"},
	{name: "cpu.heartbeat", unit: "fraction", better: "lower"},
	{name: "cpu.decision", unit: "fraction", better: "lower"},
	{name: "cpu.hmp", unit: "fraction", better: "lower"},
	{name: "cpu.fault", unit: "fraction", better: "lower"},
	{name: "cpu.gts", unit: "fraction", better: "lower"},
	{name: "cpu.power", unit: "fraction", better: "lower"},
	{name: "cpu.workload", unit: "fraction", better: "lower"},
	{name: "cpu.runtime", unit: "fraction", better: "lower"},
	{name: "cpu.stdlib", unit: "fraction", better: "lower"},
	{name: "cpu.other", unit: "fraction", better: "lower"},
	{name: "trace_overhead_frac", unit: "fraction", better: "lower"},
}

// summary is the spread of one metric's samples within a run.
type summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(values []float64) summary {
	s := summary{N: len(values), Values: values}
	if len(values) == 0 {
		return s
	}
	s.Median = median(values)
	s.Q1, s.Q3 = quartiles(values)
	return s
}

func median(values []float64) float64 {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// quartiles returns the first and third quartile by the "exclusive"
// method of Python's statistics.quantiles(values, n=4), the definition
// the benchmark's acceptance spread is computed with. A single value is
// its own quartiles.
func quartiles(values []float64) (q1, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n == 1 {
		return v[0], v[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return q(1), q(3)
}

// worse returns by what share of base the value got worse in the metric's
// direction (negative when it got better).
func (m metric) worse(base, value float64) float64 {
	d := (value - base) / base
	if m.better == "higher" {
		return -d
	}
	return d
}
