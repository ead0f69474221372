package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

func TestGenerationIsDeterministic(t *testing.T) {
	for _, w := range workloads {
		for _, sh := range []shape{w.full, w.tiny} {
			a, err := specJSON(w.gen(DefaultSeed, sh))
			if err != nil {
				t.Fatal(err)
			}
			b, err := specJSON(w.gen(DefaultSeed, sh))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("%s %+v: same seed, different bytes", w.name, sh)
			}
			c, err := specJSON(w.gen(HeldOutSeed, sh))
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(a, c) {
				t.Errorf("%s %+v: seeds %d and %d give the same spec", w.name, sh, DefaultSeed, HeldOutSeed)
			}
		}
	}
}

func TestGeneratedSpecsDecode(t *testing.T) {
	for _, w := range workloads {
		for _, sh := range []shape{w.full, w.tiny} {
			for _, seed := range []int64{DefaultSeed, HeldOutSeed} {
				sc := w.gen(seed, sh)
				for _, s := range []*scenario.Scenario{sc, cutToFirstMS(sc)} {
					js, err := specJSON(s)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := scenario.Decode(bytes.NewReader(js)); err != nil {
						t.Errorf("%s %+v seed %d (duration %d ms): %v", w.name, sh, seed, s.DurationMS, err)
					}
				}
			}
		}
	}
}

// benchmarkJSON mirrors the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestMetricTableMatchesBenchmarkJSON(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics, caps 16 and 128", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) || seen[m.name] {
			t.Errorf("bad or repeated metric %q (unit %q)", m.name, m.unit)
		}
		if m.better != "higher" && m.better != "lower" {
			t.Errorf("%s: better %q", m.name, m.better)
		}
		seen[m.name] = true
	}
	for _, m := range endToEnd {
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q (or its why differs)", i, w.Name, workloads[i].name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the benchmark %d+%d",
			len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bj.EndToEnd {
		if want := endToEnd[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != want.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, benchmark %+v", i, m, want)
		}
	}
	for i, m := range bj.PerLayer {
		if want := perLayer[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, benchmark %+v", i, m, want)
		}
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", bj.RunSeconds)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	for _, c := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		s := summarize(c.in)
		if s.Q1 != c.q1 || s.Median != c.m || s.Q3 != c.q3 {
			t.Errorf("%v: got %v/%v/%v, want %v/%v/%v", c.in, s.Q1, s.Median, s.Q3, c.q1, c.m, c.q3)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Machine).RunSteady":          "sim",
		"repro/internal/fleet.(*Scheduler).tryAdmit.func1": "fleet",
		"runtime.mallocgc":                  "runtime",
		"internal/runtime/syscall.Syscall6": "runtime",
		"gcWriteBarrier":                    "runtime",
		"fmt.(*pp).doPrintf":                "stdlib",
		"hash/fnv.(*sum64a).Write":          "stdlib",
		"main.(*timingWriter).Write":        "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestProfileDecode checks the protobuf reader against a real profile of
// this process: it must find samples charged to this test's package.
func TestProfileDecode(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	sink := 0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		sink += spin(1 << 16)
	}
	pprof.StopCPUProfile()
	flat, err := flatByFunction(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, mine int64
	for fn, ns := range flat {
		total += ns
		if strings.HasPrefix(fn, "repro/fleetbench.spin") || strings.HasPrefix(fn, "main.spin") {
			mine += ns
		}
	}
	if total == 0 || mine == 0 {
		t.Fatalf("profile decoded to %d ns total, %d in spin (sink %d): %v", total, mine, sink, flat)
	}
}

//go:noinline
func spin(n int) int {
	x := 1
	for i := 0; i < n; i++ {
		x = x*31 + i
	}
	return x
}

func TestCompareRefusesOtherFingerprint(t *testing.T) {
	fp := fingerprint{CPU: "a", NProc: 2, GOMAXPROCS: 2, GOARCH: "amd64", GoVersion: "go1.24.0"}
	old := result{Workload: "steady-64", Fingerprint: fp, Metrics: map[string]summary{"cpu_s": summarize([]float64{1})}}
	path := filepath.Join(t.TempDir(), "old.json")
	if err := writeJSON(path, old); err != nil {
		t.Fatal(err)
	}
	cur := old
	var out bytes.Buffer
	if err := compareSaved(&out, path, cur); err != nil {
		t.Fatalf("same fingerprint refused: %v", err)
	}
	cur.Fingerprint.CPU = "b"
	if err := compareSaved(&out, path, cur); err == nil || !strings.Contains(err.Error(), "REFUSED") {
		t.Fatalf("other fingerprint: got %v, want a refusal", err)
	}
}

// buildCLI compiles hars-scenario from the enclosing repository.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "hars-scenario")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/hars-scenario")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build hars-scenario: %v\n%s", err, out)
	}
	return bin
}

// TestTinyRunsPassDigestCheck runs each workload at test size through the
// CLI: the timed runs and the set-up runs must reproduce the oracle's
// digest and write trace files that hash to it.
func TestTinyRunsPassDigestCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI")
	}
	bin := buildCLI(t)
	for i := range workloads {
		w := &workloads[i]
		c := cli{bin: bin, dir: t.TempDir()}
		s, err := timedBench(c, w, w.tiny, DefaultSeed, 0)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if s.failed != 0 || s.attempted != 2*minRuns {
			t.Errorf("%s: %d of %d runs failed: %v", w.name, s.failed, s.attempted, s.errs)
		}
		for _, m := range endToEnd {
			if got := s.metrics()[m.name]; got.N == 0 || !(got.Median > 0) {
				t.Errorf("%s: %s = %+v", w.name, m.name, got)
			}
		}
	}
}

// TestTinyTracedRun runs the per-layer traced run at test size: every
// per-layer metric is produced and every digest-preserving ablation
// reproduces the default digest.
func TestTinyTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every ablation")
	}
	for i := range workloads {
		w := &workloads[i]
		m, tr, err := tracedBench(w, w.tiny, DefaultSeed, 0, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if tr.failed != 0 {
			t.Errorf("%s: %d of %d runs failed: %v", w.name, tr.failed, tr.attempted, tr.errs)
		}
		for _, pm := range perLayer {
			if _, ok := m[pm.name]; !ok {
				t.Errorf("%s: no %s", w.name, pm.name)
			}
		}
		if len(m) != len(perLayer) {
			t.Errorf("%s: %d metrics, table has %d", w.name, len(m), len(perLayer))
		}
	}
}

func TestCompareFlagsSimulatedChangeAtSameSeed(t *testing.T) {
	fp := fingerprint{CPU: "a", NProc: 2}
	old := result{Workload: "churn-16", Seed: 1, Fingerprint: fp,
		Metrics: map[string]summary{"hb_per_j": summarize([]float64{1})}}
	path := filepath.Join(t.TempDir(), "old.json")
	if err := writeJSON(path, old); err != nil {
		t.Fatal(err)
	}
	cur := old
	cur.Metrics = map[string]summary{"hb_per_j": summarize([]float64{0.999})}
	var out bytes.Buffer
	if err := compareSaved(&out, path, cur); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "CHANGED") {
		t.Errorf("0.1%% move of a simulated metric at the same seed not flagged:\n%s", out.String())
	}
}

// okPass is a pass without failures whose full run took wall seconds.
func okPass(wall float64) pass {
	r := cliRun{wall: time.Duration(wall * float64(time.Second)), cpu: time.Second, rssMB: 10}
	r.sum.DurationMS = 1000
	r.sum.EnergyJ = 1
	return pass{full: r, setup: r, runs: 2}
}

func failedPass() pass {
	return pass{runs: 2, errs: []error{errors.New("exit status 1")}}
}

// TestPairDropsBothSidesOfAFailedPair checks that the samples of the two
// sides stay aligned pair by pair when either side fails.
func TestPairDropsBothSidesOfAFailedPair(t *testing.T) {
	var sides [2]timedSamples
	addPair(&sides, [2]pass{okPass(1), okPass(2)}, 1)
	addPair(&sides, [2]pass{okPass(3), failedPass()}, 1)
	addPair(&sides, [2]pass{failedPass(), okPass(5)}, 1)
	addPair(&sides, [2]pass{okPass(4), okPass(8)}, 1)
	b, ch := sides[0].nodeSPerS, sides[1].nodeSPerS
	if len(b) != 2 || len(ch) != 2 || b[1] != 1.0/4 || ch[1] != 1.0/8 {
		t.Errorf("base %v, change %v: want the first and last pairs only", b, ch)
	}
	if sides[0].failed != 1 || sides[1].failed != 1 || sides[0].attempted != 8 {
		t.Errorf("failures base %d change %d, attempted %d", sides[0].failed, sides[1].failed, sides[0].attempted)
	}
}

// TestFailingChangeGetsNoGain checks that a change failing more runs than
// the base is judged FAILED, never a gain or no change, even when every
// pair it finished was faster, and when it finished none.
func TestFailingChangeGetsNoGain(t *testing.T) {
	m := endToEnd[0] // sim_node_s_per_s, higher is better
	var faster [2]timedSamples
	for i := 0; i < 2*minPairs; i++ {
		addPair(&faster, [2]pass{okPass(2), okPass(1)}, 1)
	}
	addPair(&faster, [2]pass{okPass(2), failedPass()}, 1)
	var none [2]timedSamples
	for i := 0; i < 2*minPairs; i++ {
		addPair(&none, [2]pass{okPass(2), failedPass()}, 1)
	}
	for name, sides := range map[string][2]timedSamples{"faster": faster, "none finished": none} {
		b, ch := sides[0].metrics()[m.name], sides[1].metrics()[m.name]
		_, v := judge(m, b, ch, sides[0].failed, sides[1].failed)
		if !strings.HasPrefix(v, "FAILED") {
			t.Errorf("%s: verdict %q, want FAILED", name, v)
		}
	}
	// Without the failure the same samples are a gain.
	b, ch := faster[0].metrics()[m.name], faster[1].metrics()[m.name]
	if _, v := judge(m, b, ch, 0, 0); v != "gain" {
		t.Errorf("faster change without failures: verdict %q, want gain", v)
	}
}
