// Command hars-bench runs the repository's tracked hot-path benchmarks
// (internal/bench) in-process via testing.Benchmark and writes the results
// as a JSON trajectory file (BENCH_<n>.json at the repository root, one per
// PR). Compare files across revisions to see the perf trend.
//
// Usage:
//
//	hars-bench [-out BENCH_1.json] [-filter regexp] [-prev BENCH_8.json]
//	           [-count 5] [-quiescent-ratio-floor 10] [-scale-ratio-floor 30]
//	           [-steady-ratio-floor 2] [-alloc-ceiling FleetQuiescent=64]
//	           [-cpuprofile cpu.pb.gz] [-memprofile mem.pb.gz] ...
//
// -prev prints per-benchmark deltas (ns/op and allocs/op) against a previous
// trajectory file, so a PR's before/after story is one flag away. Each file
// records a machine fingerprint (CPU model, GOARCH, GOAMD64, GOMAXPROCS, CPU
// count, Go version), and -prev warns loudly when the two differ.
//
// -count N runs every benchmark N times and records the median run (by
// ns/op) in the trajectory file, printing the min/max spread alongside —
// the defense against declaring a regression (or a win) off one noisy run.
//
// -quiescent-ratio-floor and -scale-ratio-floor guard the event-driven
// core's reason to exist: after the run they compute the lockstep/event
// speedup (FleetQuiescentLockstep / FleetQuiescent and FleetScale1kLockstep
// / FleetScale1k respectively) and exit non-zero when it falls below the
// floor. -steady-ratio-floor guards the steady-phase turbo path the same
// way (FleetScale1kSteadyOff / FleetScale1kSteady). CI runs all three, so a
// regression that quietly drags either fast path back toward reference cost
// fails the build.
//
// -alloc-ceiling (repeatable, name=N) pins a benchmark's steady-state
// allocation count: the run fails when the measured allocs/op exceed the
// ceiling. CI pins FleetQuiescent, so allocations creeping back into the
// quiescent hot loop fail the build rather than eroding the alloc-free
// steady state one innocent-looking change at a time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
)

// Result is one benchmark's measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// File is the trajectory file schema. Its first fields fingerprint the
// machine and build the results were taken on (see takeFingerprint).
type File struct {
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	GOAMD64    string   `json:"goamd64,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs,omitempty"`
	Benchtime  string   `json:"benchtime"`
	Results    []Result `json:"results"`
}

// ceilings is the repeatable -alloc-ceiling flag: benchmark name → maximum
// allowed allocs/op.
type ceilings map[string]int64

func (c ceilings) String() string {
	parts := make([]string, 0, len(c))
	for name, n := range c {
		parts = append(parts, fmt.Sprintf("%s=%d", name, n))
	}
	return strings.Join(parts, ",")
}

func (c ceilings) Set(v string) error {
	name, limit, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=N, got %q", v)
	}
	n, err := strconv.ParseInt(limit, 10, 64)
	if err != nil || n < 0 {
		return fmt.Errorf("bad ceiling %q", limit)
	}
	c[name] = n
	return nil
}

func main() {
	out := flag.String("out", "BENCH_1.json", "output JSON path (empty = stdout only)")
	filter := flag.String("filter", "", "regexp selecting benchmark names (empty = all)")
	prev := flag.String("prev", "", "previous trajectory file to print ns/op and allocs/op deltas against")
	quiescentFloor := flag.Float64("quiescent-ratio-floor", 0,
		"fail unless FleetQuiescentLockstep/FleetQuiescent >= this speedup (0 = no check)")
	scaleFloor := flag.Float64("scale-ratio-floor", 0,
		"fail unless FleetScale1kLockstep/FleetScale1k >= this speedup (0 = no check)")
	steadyFloor := flag.Float64("steady-ratio-floor", 0,
		"fail unless FleetScale1kSteadyOff/FleetScale1kSteady >= this speedup (0 = no check)")
	count := flag.Int("count", 1, "runs per benchmark; the median run (by ns/op) is reported and recorded, with the min/max spread printed")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the benchmark runs to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file after the runs")
	allocCeilings := ceilings{}
	flag.Var(allocCeilings, "alloc-ceiling",
		"fail when a benchmark exceeds its allocs/op ceiling, as name=N (repeatable)")
	flag.Parse()
	if *count < 1 {
		fmt.Fprintf(os.Stderr, "bad -count %d: want >= 1\n", *count)
		os.Exit(2)
	}

	var re *regexp.Regexp
	if *filter != "" {
		var err error
		if re, err = regexp.Compile(*filter); err != nil {
			fmt.Fprintf(os.Stderr, "bad -filter: %v\n", err)
			os.Exit(2)
		}
	}
	var prevFile *File
	if *prev != "" {
		data, err := os.ReadFile(*prev)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -prev: %v\n", err)
			os.Exit(2)
		}
		prevFile = &File{}
		if err := json.Unmarshal(data, prevFile); err != nil {
			fmt.Fprintf(os.Stderr, "bad -prev %s: %v\n", *prev, err)
			os.Exit(2)
		}
	}

	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	f := takeFingerprint()
	f.Benchtime = "1s" // testing.Benchmark's built-in target
	if prevFile != nil {
		if diff := fingerprintDiff(f, *prevFile); len(diff) > 0 {
			fmt.Fprintf(os.Stderr, "WARNING: %s was measured on another machine or build (%s).\n"+
				"WARNING: the [vs prev] deltas below compare different fingerprints; they are not a measurement.\n",
				*prev, strings.Join(diff, "; "))
		}
	}
	for _, c := range bench.Cases() {
		if re != nil && !re.MatchString(c.Name) {
			continue
		}
		// With -count > 1 the recorded measurement is a real run — the
		// median by ns/op — not an average that no run actually produced;
		// the min/max spread goes to the console so noisy environments are
		// visible in the log, while the trajectory file stays one number
		// per benchmark.
		runs := make([]Result, *count)
		for i := range runs {
			r := testing.Benchmark(c.F)
			runs[i] = Result{
				Name:        c.Name,
				Iterations:  r.N,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
			}
		}
		sort.Slice(runs, func(i, j int) bool { return runs[i].NsPerOp < runs[j].NsPerOp })
		res := runs[(len(runs)-1)/2]
		spread := ""
		if *count > 1 {
			spread = fmt.Sprintf("   [median of %d; min %.1f, max %.1f ns/op]",
				*count, runs[0].NsPerOp, runs[len(runs)-1].NsPerOp)
		}
		f.Results = append(f.Results, res)
		fmt.Printf("%-22s %12d iters %14.1f ns/op %8d B/op %6d allocs/op%s%s\n",
			res.Name, res.Iterations, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp,
			deltaSuffix(prevFile, res), spread)
	}

	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *out)
	} else {
		os.Stdout.Write(data)
	}

	failed := false
	if *quiescentFloor > 0 {
		if err := checkRatio(f.Results, "FleetQuiescent", "FleetQuiescentLockstep", "quiescent", *quiescentFloor); err != nil {
			fmt.Fprintln(os.Stderr, err)
			failed = true
		}
	}
	if *scaleFloor > 0 {
		if err := checkRatio(f.Results, "FleetScale1k", "FleetScale1kLockstep", "1k-scale", *scaleFloor); err != nil {
			fmt.Fprintln(os.Stderr, err)
			failed = true
		}
	}
	if *steadyFloor > 0 {
		if err := checkRatio(f.Results, "FleetScale1kSteady", "FleetScale1kSteadyOff", "steady", *steadyFloor); err != nil {
			fmt.Fprintln(os.Stderr, err)
			failed = true
		}
	}
	if err := checkAllocCeilings(f.Results, allocCeilings); err != nil {
		fmt.Fprintln(os.Stderr, err)
		failed = true
	}
	if *memprofile != "" {
		pf, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(pf); err != nil {
			fmt.Fprintln(os.Stderr, err)
			failed = true
		}
		pf.Close()
	}
	if failed {
		os.Exit(1)
	}
}

// deltaSuffix formats the change against the previous trajectory file for
// one benchmark (empty without -prev or when the file lacks the benchmark).
func deltaSuffix(prev *File, res Result) string {
	if prev == nil {
		return ""
	}
	for _, p := range prev.Results {
		if p.Name != res.Name || p.NsPerOp == 0 {
			continue
		}
		return fmt.Sprintf("   [vs prev: %+.1f%% ns/op, %+d allocs/op]",
			(res.NsPerOp-p.NsPerOp)/p.NsPerOp*100, res.AllocsPerOp-p.AllocsPerOp)
	}
	return "   [vs prev: new]"
}

// checkRatio enforces a reference/fast-path speedup floor over the measured
// results (lockstep vs event core, general loop vs steady turbo). Both
// benchmarks must be present (narrow -filter expressions that drop one are
// a configuration error, not a pass).
func checkRatio(results []Result, fastName, refName, label string, floor float64) error {
	var fast, ref float64
	for _, r := range results {
		switch r.Name {
		case fastName:
			fast = r.NsPerOp
		case refName:
			ref = r.NsPerOp
		}
	}
	if fast == 0 || ref == 0 {
		return fmt.Errorf("%s-ratio check needs both %s and %s in the run (have %v and %v ns/op)",
			label, fastName, refName, fast, ref)
	}
	ratio := ref / fast
	fmt.Printf("%s speedup: %.1fx (%s %.0f ns/op / %s %.0f ns/op), floor %.1fx\n",
		label, ratio, refName, ref, fastName, fast, floor)
	if ratio < floor {
		return fmt.Errorf("%s speedup %.1fx below the %.1fx floor: %s regressed toward %s cost", label, ratio, floor, fastName, refName)
	}
	return nil
}

// checkAllocCeilings enforces the pinned allocs/op ceilings. A ceiling
// naming a benchmark absent from the run is a configuration error, not a
// pass.
func checkAllocCeilings(results []Result, limits ceilings) error {
	for name, limit := range limits {
		found := false
		for _, r := range results {
			if r.Name != name {
				continue
			}
			found = true
			if r.AllocsPerOp > limit {
				return fmt.Errorf("%s allocated %d allocs/op, above the pinned ceiling of %d: allocations crept back into the steady state",
					name, r.AllocsPerOp, limit)
			}
			fmt.Printf("alloc ceiling: %s %d allocs/op <= %d\n", name, r.AllocsPerOp, limit)
		}
		if !found {
			return fmt.Errorf("alloc-ceiling names %s, which is not in the run", name)
		}
	}
	return nil
}
