package scenario

import (
	"bytes"
	"fmt"
	"testing"
)

// TestEventCoreMatchesLockstep is the tentpole property suite for the
// event-driven fleet core: generated multi-node scenarios — thermal loops,
// SLO'd apps over a real checkpoint-cost model, seeded fault injection, all
// four placement policies — replay through the lockstep reference core and
// the event-driven core, and both must produce byte-identical traces and
// digests. The suite runs under -race in CI.
func TestEventCoreMatchesLockstep(t *testing.T) {
	policies := []string{"least-loaded", "big-first", "coolest", "slo-aware"}
	// A fixed calibration rate keeps the suite fast (no per-run max-rate
	// calibration); equivalence only needs every variant to see the same
	// targets.
	maxRate := func(string, int) float64 { return 50 }

	for seed := int64(1); seed <= 4; seed++ {
		// One policy per seed covers all four across the suite; the
		// generator alone never draws slo-aware.
		placement := policies[(seed-1)%int64(len(policies))]
		sc := Generate(seed, GenConfig{
			Nodes:      3,
			MaxApps:    3,
			Events:     5,
			DurationMS: 6000,
			Placement:  placement,
			Thermal:    seed%2 == 0,
			Periodic:   true,
			Faults:     true,
		})
		// The generator draws neither SLOs nor checkpoint costs; add both
		// so the slo-aware pricing path is on the equivalence surface.
		sc.Checkpoint = &CheckpointSpec{FreezeUS: 30_000, PerMBUS: 1_000, SizeMB: 8}
		for i := range sc.Apps {
			sc.Apps[i].SLO = &SLOSpec{TargetHPS: 20, SlackMS: 150}
		}

		run := func(lockstep bool) (string, uint64) {
			var buf bytes.Buffer
			res, err := Run(sc, Options{
				Trace:    &buf,
				MaxRate:  maxRate,
				Strict:   true,
				Lockstep: lockstep,
			})
			if err != nil {
				t.Fatalf("seed %d (%s, lockstep=%v): %v", seed, placement, lockstep, err)
			}
			return buf.String(), res.TraceDigest
		}

		refTrace, refDigest := run(true)
		trace, digest := run(false)
		if digest != refDigest {
			t.Errorf("seed %d (%s): event digest %016x != lockstep %016x",
				seed, placement, digest, refDigest)
		}
		if trace != refTrace {
			t.Errorf("seed %d (%s): event trace diverged from lockstep (%s)",
				seed, placement, firstDiff(trace, refTrace))
		}
	}
}

// firstDiff locates the first byte two traces disagree on, with context.
func firstDiff(a, b string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 40
			if lo < 0 {
				lo = 0
			}
			return fmt.Sprintf("byte %d: %q vs %q", i, a[lo:i+1], b[lo:i+1])
		}
	}
	return fmt.Sprintf("lengths %d vs %d", len(a), len(b))
}
