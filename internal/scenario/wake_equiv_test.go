package scenario

import (
	"bytes"
	"testing"
)

// TestWakeIndexMatchesScan checks the scheduler's NextWake against the
// per-tick scan the lockstep core performs: generated multi-node scenarios
// with thermal loops, SLO'd apps, checkpointing, and seeded fault injection
// replay through the lockstep reference (which ticks the scheduler every
// tick and so never consults NextWake) and through the event-driven core
// (which sleeps until NextWake), and both must produce byte-identical
// traces and digests. A wake computed too late skips
// a scheduler decision, one computed too early is harmless, so any
// divergence points at NextWake. The suite runs under -race in CI.
func TestWakeIndexMatchesScan(t *testing.T) {
	policies := []string{"least-loaded", "big-first", "coolest", "slo-aware"}
	maxRate := func(string, int) float64 { return 50 }

	for seed := int64(1); seed <= 4; seed++ {
		placement := policies[(seed-1)%int64(len(policies))]
		sc := Generate(seed+100, GenConfig{
			Nodes:      3,
			MaxApps:    3,
			Events:     5,
			DurationMS: 6000,
			Placement:  placement,
			Thermal:    seed%2 == 0,
			Periodic:   true,
			Faults:     true,
		})
		sc.Checkpoint = &CheckpointSpec{FreezeUS: 30_000, PerMBUS: 1_000, SizeMB: 8}
		for i := range sc.Apps {
			sc.Apps[i].SLO = &SLOSpec{TargetHPS: 20, SlackMS: 150}
		}

		run := func(label string, opts Options) (string, uint64) {
			var buf bytes.Buffer
			opts.Trace = &buf
			opts.MaxRate = maxRate
			opts.Strict = true
			res, err := Run(sc, opts)
			if err != nil {
				t.Fatalf("seed %d (%s, %s): %v", seed, placement, label, err)
			}
			return buf.String(), res.TraceDigest
		}

		refTrace, refDigest := run("lockstep", Options{Lockstep: true})
		trace, digest := run("event", Options{})
		if digest != refDigest {
			t.Errorf("seed %d (%s): event digest %016x != reference %016x",
				seed, placement, digest, refDigest)
		}
		if trace != refTrace {
			t.Errorf("seed %d (%s): event trace diverged (%s)",
				seed, placement, firstDiff(trace, refTrace))
		}
	}
}
