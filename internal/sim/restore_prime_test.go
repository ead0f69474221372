package sim

import (
	"testing"

	"repro/internal/hmp"
)

// unitLoop is a minimal program for in-package tests: every thread retires
// fixed-size work units forever.
type unitLoop struct{ threads int }

func (u *unitLoop) Name() string    { return "unit-loop" }
func (u *unitLoop) NumThreads() int { return u.threads }
func (u *unitLoop) Start(p *Process) {
	for i := 0; i < u.threads; i++ {
		p.SetWork(i, 0.5)
	}
}
func (u *unitLoop) UnitDone(p *Process, local int) { p.SetWork(local, 0.5) }
func (u *unitLoop) SpeedFactor(_ int, k hmp.ClusterKind) float64 {
	if k == hmp.Big {
		return 1.5
	}
	return 1
}

// TestRestorePrimesSteadyPlan pins that a restored process sizes the
// reusable steady-window plan exactly as a spawned one does, so the first
// certification after a move does not allocate.
func TestRestorePrimesSteadyPlan(t *testing.T) {
	for _, viaRecover := range []bool{false, true} {
		src := New(hmp.Default(), Config{})
		p := src.Spawn("app", &unitLoop{threads: 8}, 4)
		src.Run(10 * Millisecond)
		snap := src.Checkpoint(p)

		dst := New(hmp.Default(), Config{})
		if viaRecover {
			dst.Recover(snap, dst.Now())
		} else {
			dst.Restore(snap, dst.Now())
		}
		if c, n := cap(dst.steady.threads), len(dst.threads); c < n {
			t.Fatalf("recover=%v: steady plan capacity %d for %d threads", viaRecover, c, n)
		}
	}
}
