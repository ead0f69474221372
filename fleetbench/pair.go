package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// minPairs is the fewest base/change pairs a comparison runs: the
// nine-in-ten rule needs at least ten.
const minPairs = 10

// pairBench builds hars-scenario from the checkout at baseDir and
// alternates it with c's binary (the change) on one generated spec, each
// pair in the opposite order to the one before, until seconds have passed
// and at least minPairs pairs ran. A gain is claimed only when the change
// fails no more runs than the base, wins nine in ten pairs, and the
// medians differ by more than the base's own quartile spread.
func pairBench(w io.Writer, c cli, baseDir string, wl *workload, seed int64, seconds float64, fp fingerprint) error {
	baseBin := filepath.Join(c.dir, "base-hars-scenario")
	build := exec.Command("go", "build", "-o", baseBin, "./cmd/hars-scenario")
	build.Dir = baseDir
	if out, err := build.CombinedOutput(); err != nil {
		return fmt.Errorf("build base in %s: %v: %s", baseDir, err, out)
	}
	baseFP, err := takeFingerprint(baseBin)
	if err != nil {
		return err
	}
	if d := baseFP.diff(fp); len(d) > 0 {
		return fmt.Errorf("REFUSED: base and change binaries differ in fingerprint (%s)", strings.Join(d, "; "))
	}
	base := cli{bin: baseBin, dir: c.dir}

	// Both sides must reproduce the base's reference output: a speed-up
	// measured on different output is void.
	in, err := prepare(c, base, wl, wl.full, seed)
	if err != nil {
		return err
	}
	bins := [2]cli{base, c}
	bins[0].pass(in) // warm-up, uncounted
	bins[1].pass(in)
	var sides [2]timedSamples // base, change
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	pairs := 0
	for ; pairs < minPairs || time.Now().Before(deadline); pairs++ {
		var p [2]pass
		first := pairs % 2
		p[first] = bins[first].pass(in)
		p[1-first] = bins[1-first].pass(in)
		addPair(&sides, p, in.nodes)
	}

	fmt.Fprintf(w, "fleetbench pair: workload %s, seed %d, %d pairs, base %s\nfingerprint: %s\n",
		wl.name, seed, pairs, baseDir, fp)
	for i, name := range []string{"base", "change"} {
		fmt.Fprintf(w, "%s: %d of %d runs failed\n", name, sides[i].failed, sides[i].attempted)
		for _, e := range sides[i].errs {
			fmt.Fprintf(w, "FAILED (%s): %v\n", name, e)
		}
	}
	type verdict struct {
		Base    summary `json:"base"`
		Change  summary `json:"change"`
		Wins    int     `json:"change_wins"`
		Verdict string  `json:"verdict"`
	}
	report := map[string]verdict{}
	bm, cm := sides[0].metrics(), sides[1].metrics()
	fmt.Fprintf(w, "%-18s %12s %12s %12s %12s %6s  %s\n", "metric", "base med", "base iqr", "change med", "change iqr", "wins", "verdict")
	for _, m := range endToEnd {
		b, ch := bm[m.name], cm[m.name]
		v := verdict{Base: b, Change: ch}
		v.Wins, v.Verdict = judge(m, b, ch, sides[0].failed, sides[1].failed)
		report[m.name] = v
		fmt.Fprintf(w, "%-18s %12.6g %12.6g %12.6g %12.6g %3d/%-2d  %s\n",
			m.name, b.Median, b.Q3-b.Q1, ch.Median, ch.Q3-ch.Q1, v.Wins, len(b.Values), v.Verdict)
	}
	b, err := json.Marshal(map[string]any{"pairs": pairs, "correct": sides[0].failed+sides[1].failed == 0, "metrics": report})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// addPair counts both passes of a pair and, only when neither side
// failed, records both, so the i-th samples of the two sides always come
// from the same pair.
func addPair(sides *[2]timedSamples, p [2]pass, nodes int) {
	sides[0].count(p[0])
	sides[1].count(p[1])
	if len(p[0].errs) == 0 && len(p[1].errs) == 0 {
		sides[0].record(p[0], nodes)
		sides[1].record(p[1], nodes)
	}
}

// judge returns how many pairs the change won on metric m and the
// verdict. The i-th values of b and ch come from the same pair. A change
// that failed more runs than the base gets no other verdict than FAILED.
func judge(m metric, b, ch summary, baseFailed, changeFailed int) (wins int, verdict string) {
	n := len(b.Values)
	for i := 0; i < n; i++ {
		if m.worse(b.Values[i], ch.Values[i]) < 0 {
			wins++
		}
	}
	worse := m.worse(b.Median, ch.Median)
	switch {
	case changeFailed > baseFailed:
		return wins, fmt.Sprintf("FAILED (change failed %d runs, base %d)", changeFailed, baseFailed)
	case n == 0 || b.Median == 0:
		return wins, "no result"
	case wins*10 >= 9*n && n >= minPairs && -worse*b.Median > b.Q3-b.Q1:
		return wins, "gain"
	case worse > m.bound:
		return wins, "REGRESSION"
	case (b.Q3-b.Q1)/b.Median > m.bound:
		return wins, "unresolved (base spread above bound)"
	default:
		return wins, "no change beyond bound"
	}
}
