package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/gts"
	"repro/internal/hmp"
	"repro/internal/sim"
	"repro/internal/workload"
)

// dedupeBoards numbers the boards TestCalibrationDedupe builds, so every
// run of it (-count N included) starts from a board no process-wide
// calibration has seen.
var dedupeBoards int

// TestCalibrationDedupe pins the max-rate calibration to one run per
// distinct (board content, bench, threads): a generated fleet whose nodes
// all carry the same custom board, each decoded from JSON as its own
// instance, calibrates exactly once per (bench, threads) it asks for, and
// not at all when replayed. Its digest equals the digest of the same spec
// run with an override that calibrates every call afresh.
func TestCalibrationDedupe(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		dedupeBoards++
		board := littleHeavyPlatform()
		board.Clusters[hmp.Big].Name = fmt.Sprintf("Cortex-A15 dedupe-%d", dedupeBoards)
		gen := Generate(seed, GenConfig{Nodes: 6, MaxApps: 8})
		for i := range gen.Nodes {
			gen.Nodes[i].Platform = board
		}
		var spec bytes.Buffer
		if err := json.NewEncoder(&spec).Encode(gen); err != nil {
			t.Fatal(err)
		}
		decode := func() *Scenario {
			sc, err := Decode(bytes.NewReader(spec.Bytes()))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return sc
		}
		if sc := decode(); sc.Nodes[0].Platform == sc.Nodes[1].Platform {
			t.Fatalf("seed %d: decoded nodes share a platform instance", seed)
		}

		asked := map[string]bool{}
		fresh := func(short string, threads int) float64 {
			asked[fmt.Sprintf("%s/%d", short, threads)] = true
			b, _ := workload.ByShort(short)
			m := sim.New(board, sim.Config{})
			m.SetPlacer(gts.New(board))
			p := m.Spawn(b.Name, b.New(threads), 10)
			m.Run(20 * sim.Second)
			return p.HB.RateOver(8*sim.Second, m.Now())
		}
		want, err := Run(decode(), Options{MaxRate: fresh})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(asked) < 2 {
			t.Fatalf("seed %d: only %d distinct (bench, threads) calibrated; the test needs a richer spec", seed, len(asked))
		}

		for rep, wantRuns := range []int{len(asked), 0} {
			before := gts.CalibrationRuns()
			got, err := Run(decode(), Options{})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if runs := int(gts.CalibrationRuns() - before); runs != wantRuns {
				t.Errorf("seed %d rep %d: %d calibration runs, want %d (%v)", seed, rep, runs, wantRuns, asked)
			}
			if got.TraceDigest != want.TraceDigest {
				t.Errorf("seed %d rep %d: digest %016x, fresh calibration %016x", seed, rep, got.TraceDigest, want.TraceDigest)
			}
		}
	}
}
