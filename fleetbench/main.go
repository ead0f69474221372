// Command fleetbench is the repository's end-to-end benchmark: it times
// the hars-scenario CLI on three seeded fleet workloads and, in its traced
// mode, measures each layer from outside the program. See README.md.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	bash fleetbench/run.sh --workload steady-64 [--seed 1] [--seconds 10] [--trace 0|1]
//	                       [--out result.json] [--against old.json] [--pair ../parent]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// result is one run's full record: what --out writes and --against reads.
type result struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Trace       bool               `json:"trace"`
	Fingerprint fingerprint        `json:"fingerprint"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Metrics     map[string]summary `json:"metrics"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fleetbench", flag.ContinueOnError)
	wlName := fs.String("workload", "", "workload to run: steady-64, sparse-1k or churn-16")
	seed := fs.Int64("seed", DefaultSeed, fmt.Sprintf("workload seed (held-out seed for checking claims: %d)", HeldOutSeed))
	seconds := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "0: time the CLI end to end; 1: the per-layer traced run")
	bin := fs.String("bin", "", "hars-scenario binary under test")
	work := fs.String("work", "", "scratch directory for specs and traces")
	out := fs.String("out", "", "also write the full result set (samples, quartiles, fingerprint) to this file")
	against := fs.String("against", "", "compare with a result set saved by --out; refused across fingerprints")
	pair := fs.String("pair", "", "alternate runs with hars-scenario built from this other checkout (the base)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workloadByName(*wlName)
	if err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *bin == "" || *work == "" {
		return fmt.Errorf("--bin and --work are required (run.sh sets them)")
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*work, w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fp, err := takeFingerprint(*bin)
	if err != nil {
		return err
	}
	c := cli{bin: *bin, dir: dir}
	if *pair != "" {
		return pairBench(stdout, c, *pair, w, *seed, *seconds, fp)
	}

	res := result{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Fingerprint: fp}
	var metrics []metric
	var errs []string
	if *trace == 0 {
		s, err := timedBench(c, w, w.full, *seed, *seconds)
		if err != nil {
			return err
		}
		res.Attempted, res.Failed, res.Metrics = s.attempted, s.failed, s.metrics()
		for _, e := range s.errs {
			errs = append(errs, e.Error())
		}
		metrics = endToEnd
	} else {
		m, t, err := tracedBench(w, w.full, *seed, *seconds, dir)
		if err != nil {
			return err
		}
		res.Attempted, res.Failed, errs = t.attempted, t.failed, t.errs
		res.Metrics = map[string]summary{}
		for k, v := range m {
			if !math.IsNaN(v) && !math.IsInf(v, 0) { // left out, so reported as unmeasured
				res.Metrics[k] = summarize([]float64{v})
			}
		}
		metrics = perLayer
	}

	fmt.Fprintf(stdout, "fleetbench: workload %s, seed %d, %d runs, %d failed (error_rate %.3g)\n",
		w.name, *seed, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	fmt.Fprintf(stdout, "why: %s\nfingerprint: %s\n", w.why, fp)
	for _, e := range errs {
		fmt.Fprintln(stdout, "FAILED:", e)
	}
	printTable(stdout, metrics, res.Metrics)
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			return err
		}
	}
	if *against != "" {
		if err := compareSaved(stdout, *against, res); err != nil {
			return err
		}
	}

	line := resultLine{Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]valueUnit{}}
	line.Correct = res.Failed == 0
	for _, m := range metrics {
		s, ok := res.Metrics[m.name]
		if !ok || s.N == 0 {
			// A metric the run could not measure is a failed run, not a 0.
			line.Correct = false
		}
		line.Metrics[m.name] = valueUnit{Value: s.Median, Unit: m.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

func printTable(w io.Writer, metrics []metric, got map[string]summary) {
	fmt.Fprintf(w, "%-32s %14s %14s %14s %4s  %s\n", "metric", "median", "q1", "q3", "n", "unit")
	for _, m := range metrics {
		s := got[m.name]
		fmt.Fprintf(w, "%-32s %14.6g %14.6g %14.6g %4d  %s\n", m.name, s.Median, s.Q1, s.Q3, s.N, m.unit)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// compareSaved prints how this run's medians moved against a saved result
// set, and refuses outright when the two were taken on different
// fingerprints or workloads. At the same seed a simulated metric must not
// move at all.
func compareSaved(w io.Writer, path string, cur result) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var old result
	if err := json.Unmarshal(b, &old); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if d := old.Fingerprint.diff(cur.Fingerprint); len(d) > 0 {
		return fmt.Errorf("REFUSED: %s was taken on another fingerprint (%s); its numbers are not comparable",
			path, strings.Join(d, "; "))
	}
	if old.Workload != cur.Workload || old.Trace != cur.Trace {
		return fmt.Errorf("REFUSED: %s holds workload %s (trace %v), this run is %s (trace %v)",
			path, old.Workload, old.Trace, cur.Workload, cur.Trace)
	}
	fmt.Fprintf(w, "against %s (seed %d):\n", path, old.Seed)
	var names []string
	for name := range cur.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		o, ok := old.Metrics[name]
		if !ok {
			continue
		}
		m := lookup(name)
		line := fmt.Sprintf("  %-32s %14.6g -> %14.6g", name, o.Median, cur.Metrics[name].Median)
		if m.simulated && old.Seed == cur.Seed && o.Median != cur.Metrics[name].Median {
			line += "  CHANGED (simulated output differs at the same seed)"
		} else if m.bound > 0 && o.Median != 0 {
			worse := m.worse(o.Median, cur.Metrics[name].Median)
			verdict := "ok"
			if worse > m.bound {
				verdict = "REGRESSION"
			}
			line += fmt.Sprintf("  worse by %+.1f%% (bound %.0f%%) %s", 100*worse, 100*m.bound, verdict)
		}
		fmt.Fprintln(w, line)
	}
	return nil
}

func lookup(name string) metric {
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if m.name == name {
			return m
		}
	}
	return metric{name: name}
}
