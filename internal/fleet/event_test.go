package fleet_test

import (
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/hmp"
	"repro/internal/power"
	"repro/internal/sim"
)

// TestDownNodeScoresNegInf pins the down-node scoring fix: every built-in
// policy scores a detector-declared-down node as -Inf, so it can never win
// a comparison against any live node — however attractive its raw load,
// capacity, or temperature would make it.
func TestDownNodeScoresNegInf(t *testing.T) {
	cost := sim.CheckpointCost{Freeze: 10 * sim.Millisecond}
	live := newMPNode(0, "live", tinyPlatform())
	down := newMPNode(1, "down", hmp.Default()) // bigger, idle: the raw winner
	if _, err := fleet.New(live, down); err != nil {
		t.Fatal(err)
	}
	down.SetDown(true)
	app := &fleet.App{Name: "a", SLO: &fleet.SLO{TargetHPS: 10, SlackMS: 100}}
	for _, p := range fleet.Policies(cost) {
		if got := p.Score(down, app); !math.IsInf(got, -1) {
			t.Errorf("%s scored the down node %v, want -Inf", p.Name(), got)
		}
		if ds, ls := p.Score(down, app), p.Score(live, app); ds >= ls {
			t.Errorf("%s prefers the down node: %v >= %v", p.Name(), ds, ls)
		}
	}
	down.SetDown(false)
	for _, p := range fleet.Policies(cost) {
		if got := p.Score(down, app); math.IsInf(got, -1) {
			t.Errorf("%s still scores the healed node -Inf", p.Name())
		}
	}
}

// TestDownNodeNeverDestination pins the candidate paths end to end: an
// arrival never admits to a down node, and a migration off a saturated node
// never lands on one — even when the down node is by far the most
// attractive candidate and would win every raw score comparison.
func TestDownNodeNeverDestination(t *testing.T) {
	src := newMPNode(0, "src", tinyPlatform())
	attractive := newMPNode(1, "attractive", hmp.Default())
	// Three-quarters of the big node: enough free cores to take both the
	// second arrival and the migration victim, but a clear raw-score loser
	// to the attractive (down) node under big-first.
	half := hmp.Default()
	half.Clusters[hmp.Big].Cores = 3
	half.Clusters[hmp.Little].Cores = 3
	modest := newMPNode(2, "modest", half)
	f, err := fleet.New(src, attractive, modest)
	if err != nil {
		t.Fatal(err)
	}
	host := &testHost{t: t}
	s := fleet.NewScheduler(f, host, fleet.Config{Policy: mustPolicy(t, fleet.PolicyBigFirst)})
	attractive.SetDown(true)

	// a0 saturates the tiny source node.
	a0 := &fleet.App{Name: "a0", Pinned: src}
	s.Arrive(a0)
	if a0.Node() != src {
		t.Fatalf("pinned arrival on %q, want %q", a0.Node().Name, src.Name)
	}

	// Admission: with src saturated, big-first would pick the big idle
	// node — but it is down, so the arrival must land on the modest one.
	a1 := &fleet.App{Name: "a1"}
	s.Arrive(a1)
	if a1.Node() != modest {
		t.Fatalf("arrival admitted to %q, want %q", a1.Node().Name, modest.Name)
	}

	// Migration: unpinned, a0 must move off the saturated source to the
	// modest live node, never the attractive down one.
	a0.Pinned = nil
	f.RunUntil(1200 * sim.Millisecond)
	checkInv(t, s)
	if a0.Node() == attractive {
		t.Fatal("migration landed on the down node")
	}
	if a0.Node() != modest {
		t.Fatalf("app on %q, want migrated to %q", a0.Node().Name, modest.Name)
	}
}

// TestPolicyCostInjection pins the registry fix: the checkpoint-cost model
// is injected at the registry boundary, so every consumer of Policies /
// PolicyByName gets an SLO-aware policy that prices migrations — nobody has
// to remember to patch the entry afterwards.
func TestPolicyCostInjection(t *testing.T) {
	cost := sim.CheckpointCost{Freeze: 123 * sim.Millisecond, PerMB: sim.Millisecond, SizeMB: 7}
	p, err := fleet.PolicyByName(fleet.PolicySLOAware, cost)
	if err != nil {
		t.Fatal(err)
	}
	if sa := p.(*fleet.SLOAware); sa.Cost != cost {
		t.Fatalf("PolicyByName cost = %+v, want %+v", sa.Cost, cost)
	}
	var found bool
	for _, p := range fleet.Policies(cost) {
		if sa, ok := p.(*fleet.SLOAware); ok {
			found = true
			if sa.Cost != cost {
				t.Fatalf("Policies cost = %+v, want %+v", sa.Cost, cost)
			}
		}
	}
	if !found {
		t.Fatal("no SLO-aware entry in the registry")
	}
}

// TestEventCoreMatchesLockstepFleet is the fleet-level equivalence
// property: the same arrival schedule replayed through the lockstep
// reference and the event-driven core produces identical energy (exact
// float equality), heartbeats, migrations, and clocks.
func TestEventCoreMatchesLockstepFleet(t *testing.T) {
	type outcome struct {
		energy     float64
		beats      int64
		migrations int
		now        sim.Time
	}
	run := func(lockstep bool) outcome {
		n0 := newMPNode(0, "n0", hmp.Default())
		n1 := newMPNode(1, "n1", tinyPlatform())
		// An unmanaged time-shared node: its machine has no per-tick
		// daemons, so the event core fast-forwards it between decisions.
		plat := hmp.Default()
		sn := sim.NewNode(2, "idle", plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
		n2 := &fleet.Node{Node: sn}
		f, err := fleet.New(n0, n1, n2)
		if err != nil {
			t.Fatal(err)
		}
		f.SetLockstep(lockstep)
		host := &testHost{t: t}
		s := fleet.NewScheduler(f, host, fleet.Config{Policy: mustPolicy(t, fleet.PolicyBigFirst)})
		a0 := &fleet.App{Name: "a0", Pinned: n0}
		a1 := &fleet.App{Name: "a1", Pinned: n1}
		s.Arrive(a0)
		f.RunUntil(500 * sim.Millisecond)
		s.Arrive(a1)
		f.RunUntil(1 * sim.Second)
		a1.Pinned = nil // the tiny node is saturated: a1 migrates off it
		f.RunUntil(2500 * sim.Millisecond)
		checkInv(t, s)
		var beats int64
		for _, app := range s.Apps() {
			if app.Proc != nil {
				beats += app.Proc.HB.Count()
			}
		}
		return outcome{f.EnergyJ(), beats, s.Stats().Migrations, f.Now()}
	}
	ref := run(true)
	if ref.migrations == 0 {
		t.Fatal("fixture produced no migrations; the equivalence check is vacuous")
	}
	if got := run(false); got != ref {
		t.Fatalf("event core diverged: %+v != %+v", got, ref)
	}
}

// faultTestHost extends testHost with the FaultHost surface. The fixtures
// using it run no applications, so the crash-recovery hooks are never
// reached; they exist to satisfy the Config.Fault wiring check.
type faultTestHost struct{ testHost }

func (h *faultTestHost) Snapshot(n *fleet.Node, app *fleet.App) {}
func (h *faultTestHost) Salvage(n *fleet.Node, app *fleet.App)  {}

// barrierCounter counts fleet hook invocations without ever asking to run:
// with it registered, every Tick the fleet takes was forced by some OTHER
// wake source, so the count exposes exactly how often the scheduler's
// NextWake fires.
type barrierCounter struct{ ticks int }

func (h *barrierCounter) Tick(*fleet.Fleet) { h.ticks++ }
func (h *barrierCounter) NextWake(*fleet.Fleet) sim.Time {
	return sim.Time(math.MaxInt64)
}

// TestHealWakeDoesNotCollapseJumping pins that the scheduler's heal wake
// costs O(1) barriers: a node proving alive while still declared down wakes
// the scheduler immediately (`!failed && down` → now), and the very next
// Tick marks it back up, so NextWake's scan returns to the cadence wake
// instead of collapsing barrier jumping into per-tick lockstep for the rest
// of the run. The same crash/detect/heal schedule replays in lockstep to
// prove the event-core outcome is bit-identical.
func TestHealWakeDoesNotCollapseJumping(t *testing.T) {
	type outcome struct {
		energy    float64
		now       sim.Time
		recovered int
	}
	run := func(lockstep bool) (outcome, int) {
		nodes := make([]*fleet.Node, 4)
		for i := range nodes {
			plat := hmp.Default()
			sn := sim.NewNode(i, string(rune('a'+i)), plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
			nodes[i] = &fleet.Node{Node: sn}
		}
		f, err := fleet.New(nodes...)
		if err != nil {
			t.Fatal(err)
		}
		f.SetLockstep(lockstep)
		host := &faultTestHost{testHost{t: t}}
		s := fleet.NewScheduler(f, host, fleet.Config{
			Fault: &fault.Config{HeartbeatTimeout: 100 * sim.Millisecond},
		})
		ctr := &barrierCounter{}
		f.AddHook(ctr)

		f.RunUntil(1 * sim.Second)
		nodes[2].Fail() // silent: detector declares it down after the timeout
		f.RunUntil(2 * sim.Second)
		nodes[2].Heal() // alive while declared down: immediate wake, one-tick recovery
		f.RunUntil(3 * sim.Second)
		return outcome{f.EnergyJ(), f.Now(), s.Stats().Recovered}, ctr.ticks
	}

	ref, lockstepTicks := run(true)
	got, eventTicks := run(false)
	if got != ref {
		t.Fatalf("event core diverged: %+v != %+v", got, ref)
	}
	// Lockstep pays one hook invocation per tick. The event core must stay
	// within the barrier budget: the migrate cadence plus a handful of
	// extra barriers for the crash deadline, the detection tick, and the
	// heal — orders of magnitude below per-tick.
	if eventTicks >= lockstepTicks/10 {
		t.Fatalf("heal wake collapsed barrier jumping: %d event barriers vs %d lockstep ticks",
			eventTicks, lockstepTicks)
	}
}
