package sim

import (
	"math/rand"
	"testing"

	"repro/internal/hmp"
)

// partitions are MP-HARS-like disjoint cpusets over hmp.Default's eight
// cores: two two-core partitions in each cluster.
var partitions = []hmp.CPUMask{
	hmp.MaskOf(0, 1), hmp.MaskOf(2, 3), hmp.MaskOf(4, 5), hmp.MaskOf(6, 7),
}

// bursty retires small units and sleeps after every third one, so
// runnable-set membership churns every few ticks while most completions
// re-arm inside the tick that retired them (a block and an unblock that
// cancel out).
type bursty struct {
	threads int
	done    []int
}

func newBursty(threads int) *bursty { return &bursty{threads: threads, done: make([]int, threads)} }

func (b *bursty) Name() string    { return "bursty" }
func (b *bursty) NumThreads() int { return b.threads }
func (b *bursty) Start(p *Process) {
	for i := 0; i < b.threads; i++ {
		p.SetWork(i, b.unit(i))
	}
}
func (b *bursty) unit(local int) float64 { return 0.0005 * float64(1+local%3) }
func (b *bursty) UnitDone(p *Process, local int) {
	b.done[local]++
	if n := b.done[local]; n%3 == 0 {
		p.WakeAt(local, p.Now()+Time(1+n%4)*Millisecond, b.unit(local))
		return
	}
	p.SetWork(local, b.unit(local))
}
func (b *bursty) SpeedFactor(int, hmp.ClusterKind) float64 { return 1 }

// freshBalancer is a MaskBalancer whose no-op memo is cleared before every
// call, so each Place runs the full repair pass and sweep.
type freshBalancer struct{ b *MaskBalancer }

func (f freshBalancer) Place(m *Machine) {
	f.b.idleOn = nil
	f.b.Place(m)
}

// liveProcs returns the processes of m that have not been killed.
func liveProcs(m *Machine) []*Process {
	var live []*Process
	for _, p := range m.procs {
		if !p.exited {
			live = append(live, p)
		}
	}
	return live
}

// churnOp applies one random perturbation of the balancer's inputs to m.
// op and the three arguments are drawn once per tick and applied to every
// machine under comparison, so identical machines stay identical.
func churnOp(m *Machine, op, x, y, z int) {
	live := liveProcs(m)
	switch {
	case op < 4: // spawn a partitioned app
		if len(live) < 6 {
			p := m.Spawn("app", newBursty(5+y%4), 4)
			for i := range p.Threads {
				p.SetAffinity(i, partitions[x%len(partitions)])
			}
		}
	case op < 6: // kill one
		if len(live) > 2 {
			m.Kill(live[x%len(live)])
		}
	case op < 14: // re-pin one thread: a partition or an arbitrary mask
		if len(live) > 0 {
			p := live[x%len(live)]
			mask := partitions[z%len(partitions)]
			if z%2 == 1 {
				mask = hmp.CPUMask(1 + z%255)
			}
			p.SetAffinity(y%len(p.Threads), mask)
		}
	case op < 16: // release an app's pinning
		if len(live) > 0 {
			live[x%len(live)].AffinityAll()
		}
	case op < 20: // external migration, as a runtime manager makes
		if cpus := m.online.CPUs(); len(cpus) > 0 && len(m.threads) > 0 {
			m.Migrate(m.threads[x%len(m.threads)], cpus[y%len(cpus)])
		}
	case op < 24: // hotplug, biased towards online
		m.SetCoreOnline(x%len(m.cores), y%3 != 0)
	case op < 25:
		m.Fail()
	case op < 28:
		m.Heal()
	case op < 36: // block a thread from outside, wake it a few ticks later
		if len(live) > 0 {
			p := live[x%len(live)]
			local := y % len(p.Threads)
			p.Block(local)
			p.WakeAt(local, m.now+Time(1+z%5)*Millisecond, 0.001)
		}
	}
}

// TestPlaceMemoMatchesFresh drives partitioned, oversubscribed machines
// through random churn — block/unblock, affinity changes, hotplug,
// Fail/Heal, external migrations, spawns and kills — and requires the
// memoized balancer to place every thread exactly where a balancer without
// the memo does, on every tick, and Settled to agree with its memo-free
// evaluation.
func TestPlaceMemoMatchesFresh(t *testing.T) {
	const ticks = 4000
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		memo, fresh := New(hmp.Default(), Config{}), New(hmp.Default(), Config{})
		bal := memo.placer.(*MaskBalancer)
		fresh.SetPlacer(freshBalancer{NewMaskBalancer()})
		hits := 0
		for tick := 0; tick < ticks; tick++ {
			op, x, y, z := rng.Intn(100), rng.Int(), rng.Int(), rng.Int()
			churnOp(memo, op, x, y, z)
			churnOp(fresh, op, x, y, z)

			got := bal.Settled(memo)
			idleOn := bal.idleOn
			bal.idleOn = nil
			want := bal.Settled(memo)
			bal.idleOn = idleOn
			if got != want {
				t.Fatalf("seed %d tick %d: Settled = %v, memo-free Settled = %v", seed, tick, got, want)
			}
			if bal.idleOn == memo && bal.idleAt == memo.placeEpoch {
				hits++
			}

			memo.Step()
			fresh.Step()
			if len(memo.threads) != len(fresh.threads) {
				t.Fatalf("seed %d tick %d: %d threads vs %d", seed, tick, len(memo.threads), len(fresh.threads))
			}
			for i, th := range memo.threads {
				if c, f := th.core, fresh.threads[i].core; c != f {
					t.Fatalf("seed %d tick %d: thread %d on core %d, memo-free balancer put it on %d",
						seed, tick, i, c, f)
				}
			}
		}
		// The comparison only means something if the memo actually serves
		// a good share of the ticks.
		if hits < ticks/4 {
			t.Fatalf("seed %d: memo served %d of %d ticks", seed, hits, ticks)
		}
	}
}

// BenchmarkPlacePartitioned measures Place on an MP-HARS-like machine:
// four disjoint two-core partitions holding 8, 6, 7 and 5 runnable
// threads (3.25 per core), so the machine-wide run-queue spread is 2 and
// every call that misses the memo runs the full runnable × cores sweep, to
// move nothing. "memo" repeats the call at one placement epoch, the common
// tick; "sweep" bumps the epoch before each call, a tick whose churn
// changed the balancer's inputs.
func BenchmarkPlacePartitioned(b *testing.B) {
	m := New(hmp.Default(), Config{})
	for i, n := range []int{8, 6, 7, 5} {
		p := m.Spawn("app", &unitLoop{threads: n}, 4)
		for local := range p.Threads {
			p.SetAffinity(local, partitions[i])
		}
	}
	bal := m.placer.(*MaskBalancer)
	bal.Place(m)
	bal.Place(m)
	if bal.idleOn != m || bal.idleAt != m.placeEpoch {
		b.Fatal("partitioned machine did not settle")
	}
	b.Run("memo", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bal.Place(m)
		}
	})
	b.Run("sweep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.placeEpoch++
			bal.Place(m)
		}
	})
}
