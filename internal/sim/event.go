package sim

import (
	"math"

	"repro/internal/hmp"
)

// Energy replay: an idle steady window (see SteadyUntil) — nothing runs,
// nothing charges, no daemon advances — reduces each tick to the memoized
// per-cluster energy additions, so RunSteady replays only those. The replay
// is a pure function of the starting accumulators, the per-tick increments,
// and the step count, which is what lets a JumpCache share it across the
// bit-identical idle machines of a large fleet.

// replayEnergy performs an idle window's energy accumulation: the float additions
// replay in registers, in exactly Step's order (per tick, clusters
// ascending, cluster accumulator then total); only the loop bookkeeping is
// hoisted.
func (m *Machine) replayEnergy(steps int64) {
	e := m.lastE
	c := m.clusterEnergyJ
	tot := m.energyJ
	for i := int64(0); i < steps; i++ {
		for k := 0; k < int(hmp.NumClusters); k++ {
			c[k] += e[k]
			tot += e[k]
		}
	}
	m.clusterEnergyJ = c
	m.energyJ = tot
}

// jumpCacheWays is the JumpCache associativity: enough that the handful of
// distinct machine shapes a fleet sweeps per barrier (busy-adjacent, a few
// platform variants) coexist without evicting each other.
const jumpCacheWays = 4

// jumpKey identifies one energy-replay transition exactly: the starting
// accumulators and per-tick increments by bit pattern (distinguishing -0
// from +0, which IEEE addition does not treat identically), plus the step
// count.
type jumpKey struct {
	steps int64
	tot   uint64
	c     [hmp.NumClusters]uint64
	e     [hmp.NumClusters]uint64
}

type jumpEntry struct {
	ok  bool
	key jumpKey
	tot float64
	c   [hmp.NumClusters]float64
}

// JumpCache memoizes the idle-window energy replay across machines and
// windows. The replay is a pure function of the starting accumulator values,
// the per-tick increments, and the step count, so two machines in
// bit-identical power states — the common case in a large
// mostly-idle fleet, where every quiescent node evolves identically — need
// the O(steps) addition loop run only once; every other machine replays the
// memoized result, bit-for-bit. A cache is single-goroutine state; hits
// only affect wall-clock, never results. A fleet keeps one for all its
// nodes.
type JumpCache struct {
	ents [jumpCacheWays]jumpEntry
	next int // round-robin eviction cursor
}

// NewJumpCache returns an empty cache.
func NewJumpCache() *JumpCache { return &JumpCache{} }

// apply advances m's energy accumulators by steps ticks of lastE, through
// the cache: a hit copies the memoized result, a miss runs the replay loop
// and memoizes it.
func (jc *JumpCache) apply(m *Machine, steps int64) {
	var key jumpKey
	key.steps = steps
	key.tot = math.Float64bits(m.energyJ)
	for k := 0; k < int(hmp.NumClusters); k++ {
		key.c[k] = math.Float64bits(m.clusterEnergyJ[k])
		key.e[k] = math.Float64bits(m.lastE[k])
	}
	for i := range jc.ents {
		if ent := &jc.ents[i]; ent.ok && ent.key == key {
			m.clusterEnergyJ = ent.c
			m.energyJ = ent.tot
			return
		}
	}
	m.replayEnergy(steps)
	jc.ents[jc.next] = jumpEntry{ok: true, key: key, tot: m.energyJ, c: m.clusterEnergyJ}
	jc.next = (jc.next + 1) % jumpCacheWays
}
