package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/decision"
	"repro/internal/scenario"
)

// The traced run measures each layer from outside the program: it calls
// the layers' public entry points in this process and times them, wraps
// the trace writer, reads the Result counters, and profiles its own CPU.
// Nothing inside the program is instrumented.

// timingWriter counts the bytes and the time spent writing the trace.
type timingWriter struct {
	w     io.Writer
	bytes int64
	busy  time.Duration
}

func (t *timingWriter) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := t.w.Write(p)
	t.busy += time.Since(start)
	t.bytes += int64(n)
	return n, err
}

// tracer holds one traced run's inputs and its running tallies.
type tracer struct {
	js        []byte // the generated spec, as the CLI would read it
	tracePath string
	attempted int
	failed    int
	errs      []string
}

// variant is one way of running the spec in process: option switches and
// a scenario edit.
type variant struct {
	name string
	opts scenario.Options
	edit func(*scenario.Scenario)
}

// outcome is one in-process run.
type outcome struct {
	wall time.Duration
	res  *scenario.Result
}

func (t *tracer) fail(format string, args ...any) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// run decodes the spec afresh, applies v and runs it with the trace going
// to a file through w (or straight to the file when w is nil). Each run
// starts from a collected heap, as a fresh CLI process does.
func (t *tracer) run(v variant, w *timingWriter) (outcome, error) {
	t.attempted++
	sc, err := scenario.Decode(bytes.NewReader(t.js))
	if err != nil {
		t.fail("%s: %v", v.name, err)
		return outcome{}, err
	}
	if v.edit != nil {
		v.edit(sc)
	}
	f, err := os.Create(t.tracePath)
	if err != nil {
		t.fail("%s: %v", v.name, err)
		return outcome{}, err
	}
	defer f.Close()
	opts := v.opts
	opts.Trace = f
	if w != nil {
		w.w = f
		opts.Trace = w
	}
	runtime.GC()
	start := time.Now()
	res, err := scenario.Run(sc, opts)
	wall := time.Since(start)
	if err == nil {
		err = f.Close()
	}
	if err != nil {
		t.fail("%s: %v", v.name, err)
		return outcome{}, err
	}
	return outcome{wall: wall, res: res}, nil
}

// minRounds is the fewest rounds of each timing loop of the traced run.
const minRounds = 3

// tracedBench produces every per-layer metric for one workload at shape
// sh, writing its traces under dir. Half of seconds goes to the default
// runs, half to the ablations.
func tracedBench(w *workload, sh shape, seed int64, seconds float64, dir string) (map[string]float64, *tracer, error) {
	js, err := specJSON(w.gen(seed, sh))
	if err != nil {
		return nil, nil, err
	}
	t := &tracer{js: js, tracePath: filepath.Join(dir, "trace.csv")}
	m := map[string]float64{}
	half := time.Duration(seconds / 2 * float64(time.Second))

	var decode []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := scenario.Decode(bytes.NewReader(js)); err != nil {
			return nil, nil, err
		}
		decode = append(decode, ms(time.Since(start)))
	}
	m["scenario.decode_ms"] = median(decode)

	// Default runs, alternating plain and traced. Traced runs add the
	// timing writer, allocation counts and a CPU profile; their cost over
	// the plain runs is the tracing overhead.
	def := variant{name: "default"}
	var plain, traced, traceMB, writeMS, allocMB, mallocsK []float64
	cpuNS := map[string]int64{}
	var digest uint64
	var busyS float64
	deadline := time.Now().Add(half)
	for i := 0; i < minRounds || time.Now().Before(deadline); i++ {
		o, err := t.run(def, nil)
		if err != nil {
			return nil, t, err
		}
		if i == 0 {
			digest = o.res.TraceDigest
			busyS = resultCounters(m, o.res)
		} else if o.res.TraceDigest != digest {
			t.fail("default: trace digest %016x, first run %016x", o.res.TraceDigest, digest)
		}
		plain = append(plain, o.wall.Seconds())

		tw := &timingWriter{}
		var before, after runtime.MemStats
		var prof bytes.Buffer
		runtime.ReadMemStats(&before)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, t, err
		}
		o, err = t.run(def, tw)
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, t, err
		}
		if o.res.TraceDigest != digest {
			t.fail("traced default: trace digest %016x, plain %016x", o.res.TraceDigest, digest)
		}
		traced = append(traced, o.wall.Seconds())
		traceMB = append(traceMB, float64(tw.bytes)/(1<<20))
		writeMS = append(writeMS, ms(tw.busy))
		allocMB = append(allocMB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		mallocsK = append(mallocsK, float64(after.Mallocs-before.Mallocs)/1000)
		flat, err := flatByFunction(prof.Bytes())
		if err != nil {
			return nil, t, err
		}
		for fn, ns := range flat {
			cpuNS[layerOf(fn)] += ns
		}
	}
	m["scenario.trace_mb"] = median(traceMB)
	m["scenario.trace_write_ms"] = median(writeMS)
	m["scenario.alloc_mb"] = median(allocMB)
	m["scenario.mallocs_k"] = median(mallocsK)
	m["trace_overhead_frac"] = median(traced)/median(plain) - 1
	cpuShares(m, cpuNS)

	// Ablations, run round-robin with the default so that drift in the
	// host's speed hits every variant alike. The program's four reference
	// switches must reproduce the default digest; the spec edits change it
	// by construction. Decision cost is with tracing against without, on
	// every workload (forcing it on where the spec has no block).
	noThermal := func(sc *scenario.Scenario) {
		sc.Thermal = nil
		for i := range sc.Nodes {
			sc.Nodes[i].Thermal = nil
		}
	}
	variants := []struct {
		v    variant
		same bool // must reproduce the default digest
	}{
		{variant{name: "default"}, true},
		{variant{name: "no-steady", opts: scenario.Options{NoSteady: true}}, true},
		{variant{name: "lockstep", opts: scenario.Options{Lockstep: true}}, true},
		{variant{name: "wake-scan", opts: scenario.Options{WakeScan: true}}, true},
		{variant{name: "workers-2", opts: scenario.Options{Workers: 2}}, true},
		{variant{name: "decisions", opts: scenario.Options{TraceDecisions: true}}, false},
		{variant{name: "no-decisions", edit: func(sc *scenario.Scenario) { sc.Decisions = nil }}, false},
		{variant{name: "no-thermal", edit: noThermal}, false},
	}
	walls := make([][]float64, len(variants))
	deadline = time.Now().Add(half)
	for round := 0; round < minRounds || time.Now().Before(deadline); round++ {
		for i, a := range variants {
			o, err := t.run(a.v, nil)
			if err != nil {
				continue
			}
			if a.same && o.res.TraceDigest != digest {
				t.fail("%s: trace digest %016x, default %016x", a.v.name, o.res.TraceDigest, digest)
				continue
			}
			walls[i] = append(walls[i], o.wall.Seconds())
			if a.v.name == "decisions" && round == 0 {
				m["decision.format_us_per_record"] = formatCost(o.res.DecisionRecords)
			}
		}
	}
	med := make([]float64, len(variants))
	for i := range walls {
		med[i] = median(walls[i]) // NaN when every run failed; reported as a failure
	}
	base := med[0]
	m["scenario.run_ms"] = base * 1000
	m["sim.host_us_per_busy_core_s"] = base * 1e6 / busyS
	m["sim.steady_speedup"] = med[1] / base
	m["fleet.event_speedup"] = med[2] / base
	m["fleet.wake_index_speedup"] = med[3] / base
	m["fleet.workers2_speedup"] = base / med[4]
	m["decision.trace_cost_frac"] = (med[5] - med[6]) / med[5]
	m["thermal.cost_frac"] = (base - med[7]) / base
	return m, t, nil
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }

// cpuShares turns CPU nanoseconds per layer into shares of the profile,
// folding layers without a metric of their own into cpu.other.
func cpuShares(m map[string]float64, ns map[string]int64) {
	var total int64
	for _, v := range ns {
		total += v
	}
	for _, pm := range perLayer {
		if strings.HasPrefix(pm.name, "cpu.") {
			m[pm.name] = 0
		}
	}
	if total == 0 {
		return
	}
	for layer, v := range ns {
		key := "cpu." + layer
		if _, ok := m[key]; !ok {
			key = "cpu.other"
		}
		m[key] += float64(v) / float64(total)
	}
}

// resultCounters reads the layer counters the default run's Result
// carries and returns the run's busy core-seconds.
func resultCounters(m map[string]float64, res *scenario.Result) float64 {
	var threadMig int
	for _, a := range res.Apps {
		threadMig += a.Migrations
	}
	var busyS float64
	var throttles, trips int
	for _, n := range res.Nodes {
		for cpu := 0; cpu < n.Machine.Platform().TotalCores(); cpu++ {
			busyS += float64(n.Machine.BusyTime(cpu)) / 1e6
		}
		if n.Thermal != nil {
			throttles += n.Thermal.Throttles()
			trips += n.Thermal.Trips()
		}
	}
	d := &res.Decisions
	m["sim.thread_migrations"] = float64(threadMig)
	m["fleet.admissions"] = float64(d.Admissions)
	m["fleet.migrations"] = float64(d.Migrations)
	m["fleet.gated_migrations"] = float64(d.GatedMigrations)
	m["fleet.no_candidate"] = float64(d.NoCandidate)
	m["fleet.queued"] = float64(res.QueuedArrivals)
	m["fleet.dropped"] = float64(res.DroppedArrivals)
	m["fleet.queue_wait_ms_mean"] = d.QueueWait.MeanUS() / 1000
	m["thermal.throttles"] = float64(throttles)
	m["thermal.trips"] = float64(trips)
	m["fault.crashes"] = float64(res.NodeCrashes)
	m["fault.recoveries"] = float64(res.Recoveries)
	m["fault.transfer_fails"] = float64(res.TransferFails)
	m["fault.lost_work_s"] = float64(res.LostWorkUS) / 1e6
	return busyS
}

// formatSink keeps the formatted output observable so the timed calls
// cannot be optimised away.
var formatSink int

// formatCost times decision.FormatCandidates over a run's recorded
// decisions, repeating the pass for at least 100 ms, and returns
// microseconds per record.
func formatCost(records []decision.Record) float64 {
	if len(records) == 0 {
		return 0
	}
	var n, size int
	start := time.Now()
	for time.Since(start) < 100*time.Millisecond {
		for _, r := range records {
			size += len(decision.FormatCandidates(r.Candidates))
		}
		n += len(records)
	}
	formatSink = size
	return float64(time.Since(start).Microseconds()) / float64(n)
}
