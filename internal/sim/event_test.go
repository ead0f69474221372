package sim_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/heartbeat"
	"repro/internal/hmp"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/thermal"
)

// tickCounter is a daemon that does NOT implement sim.SteadyDaemon: it must
// force the machine into per-tick stepping, and counts the ticks to prove it
// ran.
type tickCounter struct{ n int }

func (d *tickCounter) Tick(*sim.Machine) { d.n++ }

// napper is a periodic daemon that sleeps between its deadlines: it records
// the times it was invoked at while awake and declares each deadline as its
// steady-window Wake bound.
type napper struct {
	period sim.Time
	next   sim.Time
	seen   []sim.Time
}

func (d *napper) Tick(m *sim.Machine) {
	if m.Now() < d.next {
		return
	}
	d.seen = append(d.seen, m.Now())
	d.next = m.Now() + d.period
}

func (d *napper) SteadyBegin(m *sim.Machine) (sim.SteadyEntry, bool) {
	if d.next <= m.Now() {
		return sim.SteadyEntry{}, false // due now
	}
	return sim.SteadyEntry{Wake: d.next}, true
}

// requireSameMachine fails unless fast and slow agree bit-for-bit on every
// observable accumulator: clock, energy (exact float bits — idle windows
// replay the memoized additions instead of multiplying), per-cluster
// energy, per-core busy time, and charged overhead.
func requireSameMachine(t *testing.T, fast, slow *sim.Machine) {
	t.Helper()
	if fast.Now() != slow.Now() {
		t.Fatalf("clocks diverged: %d != %d", fast.Now(), slow.Now())
	}
	if fb, sb := math.Float64bits(fast.EnergyJ()), math.Float64bits(slow.EnergyJ()); fb != sb {
		t.Fatalf("energy diverged: %x != %x (%v vs %v)", fb, sb, fast.EnergyJ(), slow.EnergyJ())
	}
	for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
		if math.Float64bits(fast.ClusterEnergyJ(k)) != math.Float64bits(slow.ClusterEnergyJ(k)) {
			t.Fatalf("cluster %v energy diverged: %v != %v", k, fast.ClusterEnergyJ(k), slow.ClusterEnergyJ(k))
		}
	}
	for cpu := 0; cpu < fast.Platform().TotalCores(); cpu++ {
		if math.Float64bits(fast.Util(cpu)) != math.Float64bits(slow.Util(cpu)) {
			t.Fatalf("cpu %d busy time diverged: %v != %v", cpu, fast.Util(cpu), slow.Util(cpu))
		}
	}
	if fast.Overhead() != slow.Overhead() {
		t.Fatalf("overhead diverged: %d != %d", fast.Overhead(), slow.Overhead())
	}
}

// requireSameGovernor fails unless both governors agree bit-for-bit on
// temperatures and peaks and exactly on their action counters.
func requireSameGovernor(t *testing.T, fast, slow *thermal.Governor) {
	t.Helper()
	for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
		if math.Float64bits(fast.TempC(k)) != math.Float64bits(slow.TempC(k)) {
			t.Fatalf("cluster %v temperature diverged: %v != %v", k, fast.TempC(k), slow.TempC(k))
		}
		if math.Float64bits(fast.PeakC(k)) != math.Float64bits(slow.PeakC(k)) {
			t.Fatalf("cluster %v peak diverged: %v != %v", k, fast.PeakC(k), slow.PeakC(k))
		}
	}
	if fast.Throttles() != slow.Throttles() || fast.Trips() != slow.Trips() || fast.Releases() != slow.Releases() {
		t.Fatalf("governor counters diverged: %d/%d/%d != %d/%d/%d",
			fast.Throttles(), fast.Trips(), fast.Releases(),
			slow.Throttles(), slow.Trips(), slow.Releases())
	}
}

// stepUntil is the per-tick reference walk RunUntil must match.
func stepUntil(m *sim.Machine, end sim.Time) {
	for m.Now() < end {
		m.Step()
	}
}

// requireIdleWindow fails unless the idle machine certifies a window past
// its next tick: the equivalence tests below must exercise the window path,
// not merely agree because both sides stepped.
func requireIdleWindow(t *testing.T, m *sim.Machine) {
	t.Helper()
	if m.RunnableCount() != 0 {
		t.Fatalf("fixture not idle: %d runnable", m.RunnableCount())
	}
	if u := m.SteadyUntil(m.Now() + 100*sim.Millisecond); u <= m.Now()+m.TickLen() {
		t.Fatalf("idle machine certified only until %d (now %d)", u, m.Now())
	}
}

// TestIdleWindowsMatchStepping is the machine-level equivalence property:
// RunUntil (which runs idle stretches as windows) must leave the machine
// bit-for-bit where an explicit per-tick Step loop leaves it — clock,
// energy, retired work, heartbeats, and timer deliveries.
func TestIdleWindowsMatchStepping(t *testing.T) {
	build := func() (*sim.Machine, *sim.Process) {
		plat := hmp.Default()
		m := sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
		// Wakes at 200 ms via a timer, spins briefly, then goes idle again
		// each time a unit completes: plenty of idle stretches to jump.
		p := m.Spawn("s", &spinner{threads: 2, unit: 0.05, delay: 200 * sim.Millisecond, beats: true}, 4)
		return m, p
	}

	fast, fp := build()
	slow, sp := build()

	end := sim.Time(1 * sim.Second)
	fast.RunUntil(end)
	stepUntil(slow, end)

	requireSameMachine(t, fast, slow)
	if fp.WorkDone() != sp.WorkDone() {
		t.Fatalf("work diverged: %v != %v", fp.WorkDone(), sp.WorkDone())
	}
	if fp.HB.Count() != sp.HB.Count() {
		t.Fatalf("heartbeats diverged: %d != %d", fp.HB.Count(), sp.HB.Count())
	}
}

// TestSteadyUntilIdleBounds pins the window gate on an idle machine: a warm
// idle machine certifies to the limit, the first pending timer bounds the
// window, and once the thread wakes the warm busy machine certifies too.
func TestSteadyUntilIdleBounds(t *testing.T) {
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})

	// A cold machine has no warm energy memo: no window.
	if u := m.SteadyUntil(m.Now() + sim.Second); u != m.Now() {
		t.Fatalf("cold machine certified until %d", u)
	}
	m.Step() // warms the memo
	limit := m.Now() + sim.Second
	if u := m.SteadyUntil(limit); u != limit {
		t.Fatalf("warm idle machine certified until %d, want %d", u, limit)
	}

	// A pending timer bounds the window (WakeAt deadlines are absolute).
	m.Spawn("s", &spinner{threads: 1, unit: 0.1, delay: 300 * sim.Millisecond}, 4)
	wake := sim.Time(300 * sim.Millisecond)
	if u := m.SteadyUntil(limit); u != wake {
		t.Fatalf("timer-bounded window to %d, want %d", u, wake)
	}

	// Past the wakeup the thread is runnable; once its placement settles
	// and the memo re-warms, the busy machine certifies as well.
	m.RunUntil(wake + 2*sim.Millisecond)
	if m.RunnableCount() == 0 {
		t.Fatal("thread did not wake")
	}
	if u := m.SteadyUntil(limit); u <= m.Now() {
		t.Fatalf("warm busy machine not certified (now %d)", m.Now())
	}
}

// TestIdleManagedMachineMatchesStepping covers an idle window that still
// charges: a live HARS manager polls (and charges overhead) every tick while
// its process sleeps on a timer, so nothing is runnable but one core's
// stolen balance cycles every tick. RunUntil must take that stretch as a
// window and land bit-for-bit on the per-tick reference — energy, busy
// time, and the overhead total the manager charged.
func TestIdleManagedMachineMatchesStepping(t *testing.T) {
	build := func() *sim.Machine {
		plat := hmp.Default()
		m := sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
		p := m.Spawn("s", &spinner{threads: 2, unit: 0.05, delay: 400 * sim.Millisecond, beats: true}, 4)
		mgr := core.NewManager(m, p, power.SyntheticLinearModel(plat),
			heartbeat.TargetAround(100, 0.5, 0.05), core.Config{Version: core.HARSE})
		m.AddDaemon(mgr)
		return m
	}

	probe := build()
	probe.Step()
	probe.Step() // warm memo, overhead balance at its fixed point
	requireIdleWindow(t, probe)

	fast, slow := build(), build()
	end := sim.Time(1 * sim.Second)
	fast.RunUntil(end)
	stepUntil(slow, end)
	requireSameMachine(t, fast, slow)
	if fast.Overhead() == 0 {
		t.Fatal("manager charged no overhead")
	}
}

// TestIdleGovernedMachineMatchesStepping covers an idle window with a
// per-tick Ticker: a thermal governor integrates its RC model every tick
// on an otherwise idle machine, so the window advances the governor
// through SteadyTick/SteadyAdvance. Temperatures, peaks and energy must
// match the per-tick reference bit-for-bit.
func TestIdleGovernedMachineMatchesStepping(t *testing.T) {
	build := func() (*sim.Machine, *thermal.Governor) {
		plat := hmp.Default()
		m := sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
		gov, err := thermal.NewGovernor(thermal.Spec{Enabled: true, TripC: 45, ThrottleC: 33, ReleaseC: 30})
		if err != nil {
			t.Fatal(err)
		}
		m.AddDaemon(gov)
		// A late burst heats the board, so the idle tail cools it again.
		m.Spawn("s", &spinner{threads: 8, unit: 0.5, delay: 700 * sim.Millisecond}, 0)
		return m, gov
	}

	probe, _ := build()
	probe.Step()
	requireIdleWindow(t, probe)

	fast, fgov := build()
	slow, sgov := build()
	end := sim.Time(2 * sim.Second)
	fast.RunUntil(end)
	stepUntil(slow, end)
	requireSameMachine(t, fast, slow)
	requireSameGovernor(t, fgov, sgov)
}

// TestFailHealMachineMatchesStepping covers a failed machine as an idle
// window: Fail kills the managed process mid-run (its manager's Tick turns
// into a no-op), power integration stops while the board is down, and the
// governor keeps integrating at zero watts; after Heal the memo re-warms
// and idle windows resume. Both phases must match the per-tick reference
// bit-for-bit.
func TestFailHealMachineMatchesStepping(t *testing.T) {
	build := func() (*sim.Machine, *thermal.Governor) {
		plat := hmp.Default()
		m := sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
		gov, err := thermal.NewGovernor(thermal.Spec{Enabled: true, TripC: 45, ThrottleC: 33, ReleaseC: 30})
		if err != nil {
			t.Fatal(err)
		}
		m.AddDaemon(gov)
		p := m.Spawn("s", &spinner{threads: 4, unit: 0.3, beats: true}, 0)
		mgr := core.NewManager(m, p, power.SyntheticLinearModel(plat),
			heartbeat.TargetAround(100, 0.5, 0.05), core.Config{Version: core.HARSE})
		m.AddDaemon(mgr)
		return m, gov
	}

	failAt, healAt, end := sim.Time(300*sim.Millisecond), sim.Time(700*sim.Millisecond), sim.Time(1500*sim.Millisecond)
	fast, fgov := build()
	slow, sgov := build()

	fast.RunUntil(failAt)
	stepUntil(slow, failAt)
	fast.Fail()
	slow.Fail()
	// One tick drains the overhead the manager charged before the crash.
	fast.Step()
	slow.Step()
	requireIdleWindow(t, fast)
	fast.RunUntil(healAt)
	stepUntil(slow, healAt)
	requireSameMachine(t, fast, slow)
	requireSameGovernor(t, fgov, sgov)

	fast.Heal()
	slow.Heal()
	fast.RunUntil(end)
	stepUntil(slow, end)
	requireSameMachine(t, fast, slow)
	requireSameGovernor(t, fgov, sgov)
	if fast.EnergyJ() == 0 {
		t.Fatal("fixture drew no energy")
	}
}

// TestNonSleeperDaemonForcesLockstep pins the conservative default: a daemon
// that does not implement SteadyDaemon runs on every tick even across an
// otherwise-idle run, so RunUntil may not skip any.
func TestNonSleeperDaemonForcesLockstep(t *testing.T) {
	m := sim.New(hmp.Default(), sim.Config{})
	d := &tickCounter{}
	m.AddDaemon(d)
	m.RunUntil(100 * sim.Millisecond)
	if want := 100; d.n != want {
		t.Fatalf("non-steady daemon ticked %d times, want %d", d.n, want)
	}
}

// TestSleeperDaemonWakesExactly pins the Wake bound end to end: a periodic
// napper is invoked at exactly the ticks its deadlines name, with the idle
// time in between taken as windows, and the invocation times match the
// per-tick reference run.
func TestSleeperDaemonWakesExactly(t *testing.T) {
	run := func(step bool) []sim.Time {
		m := sim.New(hmp.Default(), sim.Config{})
		d := &napper{period: 70 * sim.Millisecond}
		m.AddDaemon(d)
		end := sim.Time(500 * sim.Millisecond)
		if step {
			stepUntil(m, end)
		} else {
			m.RunUntil(end)
		}
		return d.seen
	}
	fast, slow := run(false), run(true)
	if len(fast) != len(slow) {
		t.Fatalf("wake counts diverged: %d != %d (%v vs %v)", len(fast), len(slow), fast, slow)
	}
	for i := range fast {
		if fast[i] != slow[i] {
			t.Fatalf("wake %d at %d, reference at %d", i, fast[i], slow[i])
		}
	}
	if len(fast) < 7 {
		t.Fatalf("expected ≥7 wakes over 500 ms at 70 ms period, got %d", len(fast))
	}
}
