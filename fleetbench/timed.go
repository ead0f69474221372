package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/scenario"
)

// cliSummary is the part of hars-scenario's -summary json document the
// benchmark reads.
type cliSummary struct {
	DurationMS  int64   `json:"duration_ms"`
	TraceDigest string  `json:"trace_digest"`
	EnergyJ     float64 `json:"energy_j"`
	SLOSamples  int     `json:"slo_samples"`
	SLOMisses   int     `json:"slo_misses"`
	Apps        []struct {
		Beats int64 `json:"beats"`
	} `json:"apps"`
}

// cliRun is one measured hars-scenario process.
type cliRun struct {
	wall  time.Duration
	steal time.Duration // CPU time the hypervisor withheld during the run
	cpu   time.Duration // user + system
	rssMB float64
	sum   cliSummary
}

// cli runs one binary of hars-scenario on spec files in dir.
type cli struct {
	bin string
	dir string
}

// run executes the CLI with args and returns its measurements and parsed
// summary. A non-zero exit or an unreadable summary is an error.
func (c cli) run(args ...string) (cliRun, error) {
	cmd := exec.Command(c.bin, args...)
	cmd.Dir = c.dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	stolen := stealTime()
	start := time.Now()
	err := cmd.Run()
	r := cliRun{wall: time.Since(start), steal: stealTime() - stolen}
	if err != nil {
		return r, fmt.Errorf("hars-scenario %v: %v: %s", args, err, bytes.TrimSpace(stderr.Bytes()))
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if err := json.Unmarshal(stdout.Bytes(), &r.sum); err != nil || r.sum.TraceDigest == "" {
		return r, fmt.Errorf("hars-scenario %v: no summary on stdout (%v)", args, err)
	}
	return r, nil
}

// reference runs spec through the repository's own oracles, the
// lockstep fleet core and the general per-tick loop, and returns the
// digest every timed run of the spec must reproduce.
func (c cli) reference(spec string) (string, error) {
	r, err := c.run("-in", spec, "-lockstep", "-steady=false", "-summary", "json")
	if err != nil {
		return "", fmt.Errorf("reference run: %w", err)
	}
	return r.sum.TraceDigest, nil
}

// timed runs spec the way a user does, writing the trace to a file, and
// checks the summary digest against want and against the trace bytes
// actually written.
func (c cli) timed(spec, want string) (cliRun, error) {
	trace := filepath.Join(c.dir, "trace.csv")
	r, err := c.run("-in", spec, "-trace", trace, "-summary", "json")
	if err != nil {
		return r, err
	}
	if r.sum.TraceDigest != want {
		return r, fmt.Errorf("%s: trace digest %s, reference %s", spec, r.sum.TraceDigest, want)
	}
	got, err := fileDigest(trace)
	if err != nil {
		return r, err
	}
	if got != want {
		return r, fmt.Errorf("%s: trace file hashes to %s, summary says %s", spec, got, want)
	}
	return r, nil
}

// stealTime returns the CPU time the hypervisor has withheld from this
// machine since boot, summed over its CPUs: the eighth field of the "cpu"
// line of /proc/stat, in USER_HZ (100 Hz) ticks. It is zero on bare metal
// and where /proc/stat does not exist.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := fnv.New64a()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("hash %s: %w", path, err)
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// writeSpec encodes sc into dir/name and returns the file name.
func writeSpec(dir, name string, sc *scenario.Scenario) (string, error) {
	js, err := specJSON(sc)
	if err != nil {
		return "", err
	}
	return name, os.WriteFile(filepath.Join(dir, name), js, 0o644)
}

// inputs are a generated workload's spec files and the digests their runs
// must reproduce.
type inputs struct {
	spec, want       string // the full spec
	setup, wantSetup string // the spec cut to its first millisecond
	nodes            int
}

// prepare generates the workload at shape sh into c's directory and takes
// each spec's digest from one untimed run of ref through the oracles.
func prepare(c, ref cli, w *workload, sh shape, seed int64) (inputs, error) {
	sc := w.gen(seed, sh)
	in := inputs{nodes: len(sc.Nodes)}
	var err error
	if in.spec, err = writeSpec(c.dir, "spec.json", sc); err != nil {
		return in, err
	}
	if in.setup, err = writeSpec(c.dir, "setup.json", cutToFirstMS(sc)); err != nil {
		return in, err
	}
	if in.want, err = ref.reference(in.spec); err != nil {
		return in, err
	}
	in.wantSetup, err = ref.reference(in.setup)
	return in, err
}

// pass is one timed run of the full spec and one of its set-up cut.
type pass struct {
	full, setup cliRun
	runs        int     // CLI runs attempted
	errs        []error // one per failed run
}

// pass runs in's full spec and then its set-up spec once each.
func (c cli) pass(in inputs) pass {
	var p pass
	var err error
	p.full, err = c.timed(in.spec, in.want)
	if err != nil {
		p.errs = append(p.errs, err)
	}
	p.setup, err = c.timed(in.setup, in.wantSetup)
	if err != nil {
		p.errs = append(p.errs, err)
	}
	p.runs = 2
	return p
}

// hostTime is r's wall time less the CPU time the hypervisor stole
// meanwhile. On a shared virtual machine steal comes in bursts of up to a
// second and would otherwise swamp the program's own cost. Steal is summed
// over all CPUs, but an idle CPU accrues none, so on a machine running
// only the benchmark it is the steal suffered by the CLI's own threads.
// The guard keeps a burst on another busy CPU from cancelling more than
// half the run.
func hostTime(r cliRun) float64 {
	return max(r.wall-r.steal, r.wall/2).Seconds()
}

// timedSamples collects the end-to-end samples of repeated CLI runs.
type timedSamples struct {
	attempted, failed int
	errs              []error
	nodeSPerS, cpuS   []float64
	setupS, rssMB     []float64
	hbPerJ, sloMiss   float64
}

// count records p's attempted and failed runs.
func (s *timedSamples) count(p pass) {
	s.attempted += p.runs
	s.failed += len(p.errs)
	for _, err := range p.errs {
		if len(s.errs) < 5 {
			s.errs = append(s.errs, err)
		}
	}
}

// record adds the samples of a pass without failures over a spec with the
// given node count.
func (s *timedSamples) record(p pass, nodes int) {
	simS := float64(nodes) * float64(p.full.sum.DurationMS) / 1000
	s.nodeSPerS = append(s.nodeSPerS, simS/hostTime(p.full))
	s.cpuS = append(s.cpuS, p.full.cpu.Seconds())
	s.rssMB = append(s.rssMB, p.full.rssMB)
	s.setupS = append(s.setupS, hostTime(p.setup))
	var beats int64
	for _, a := range p.full.sum.Apps {
		beats += a.Beats
	}
	// Simulated outputs: identical on every run with the same digest.
	s.hbPerJ = float64(beats) / p.full.sum.EnergyJ
	if p.full.sum.SLOSamples > 0 {
		s.sloMiss = float64(p.full.sum.SLOMisses) / float64(p.full.sum.SLOSamples)
	}
}

func (s *timedSamples) metrics() map[string]summary {
	return map[string]summary{
		"sim_node_s_per_s": summarize(s.nodeSPerS),
		"cpu_s":            summarize(s.cpuS),
		"peak_rss_mb":      summarize(s.rssMB),
		"setup_s":          summarize(s.setupS),
		"hb_per_j":         summarize([]float64{s.hbPerJ}),
		"slo_miss_frac":    summarize([]float64{s.sloMiss}),
	}
}

// minRuns is the fewest passes, however short --seconds is.
const minRuns = 5

// timedBench generates the workload at shape sh, computes its reference
// digests, and repeats passes of c until seconds have passed.
func timedBench(c cli, w *workload, sh shape, seed int64, seconds float64) (*timedSamples, error) {
	in, err := prepare(c, c, w, sh, seed)
	if err != nil {
		return nil, err
	}
	// One untimed pass brings the binary and inputs into the page cache;
	// its result is checked but not counted.
	if p := c.pass(in); len(p.errs) > 0 {
		return nil, p.errs[0]
	}
	s := &timedSamples{}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < minRuns || time.Now().Before(deadline); i++ {
		p := c.pass(in)
		s.count(p)
		if len(p.errs) == 0 {
			s.record(p, in.nodes)
		}
	}
	return s, nil
}
