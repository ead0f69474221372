// Package sim is a deterministic discrete-time simulator of a big.LITTLE
// HMP machine. It substitutes for the paper's ODROID-XU3 testbed: it exposes
// exactly the observation and actuation surface HARS uses on real hardware —
// per-application heartbeats, per-thread CPU affinity (sched_setaffinity),
// per-cluster DVFS, and cluster power draw — while running entirely in
// process with no OS-thread control.
//
// The machine advances in fixed ticks (default 1 ms). Each tick the placer
// (an OS scheduler model: the mask balancer for HARS runs, the GTS model for
// baselines) places runnable threads on cores; each core divides its tick
// capacity equally among the threads on it; threads retire abstract work
// units at a rate of FreqScale × application-specific IPC factor per second;
// completed units invoke the owning program's callback, which hands out more
// work, blocks the thread, moves pipeline tokens, and emits heartbeats. A
// pluggable power model integrates per-cluster energy every tick, and
// daemons (runtime managers, sensors, schedulers) run at the end of each
// tick.
package sim

import (
	"fmt"

	"repro/internal/heartbeat"
	"repro/internal/hmp"
)

// Time is simulated time in microseconds.
type Time = int64

// Convenient durations in simulated time.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts a simulated duration to floating-point seconds.
func Seconds(d Time) float64 { return float64(d) / float64(Second) }

// PowerModel computes the power drawn by one cluster during a tick.
// Implementations live in internal/power; the interface lives here so the
// simulator does not depend on any particular model.
//
// ClusterPower must be a pure function of its arguments: the machine
// memoizes the per-tick energy increment while a cluster's level and busy
// fractions are unchanged, so a stateful model (e.g. thermal drift) would
// not be re-consulted in steady state.
type PowerModel interface {
	// ClusterPower returns the watts drawn by cluster k while running at
	// frequency level `level` with the given per-core busy fractions
	// (one entry per core of the cluster, each in [0, 1]).
	ClusterPower(k hmp.ClusterKind, level int, coreBusy []float64) float64
}

// OnlinePowerModel is an optional PowerModel extension for models that
// distinguish powered from hotplugged-off cores: a core taken offline stops
// drawing leakage, so the per-cluster floor shrinks with the online count.
// While every core of a cluster is online the machine keeps calling plain
// ClusterPower — implementations must make ClusterPowerOnline with a full
// online count agree bit-for-bit with ClusterPower — so models that ignore
// hotplug (and runs that never unplug a core) are entirely unaffected.
//
// Like ClusterPower, ClusterPowerOnline must be a pure function of its
// arguments: the onlineCores count participates in the machine's per-tick
// energy memo alongside the level and busy fractions.
type OnlinePowerModel interface {
	PowerModel
	ClusterPowerOnline(k hmp.ClusterKind, level int, coreBusy []float64, onlineCores int) float64
}

// Placer is the OS scheduler model: every tick it may migrate threads
// between cores (respecting affinity masks is the placer's job).
type Placer interface {
	Place(m *Machine)
}

// Daemon is a per-tick hook that runs after execution and power accounting:
// runtime managers, sensors, and load trackers are daemons.
type Daemon interface {
	Tick(m *Machine)
}

// Config carries machine construction parameters. The zero value selects
// sensible defaults.
type Config struct {
	TickLen Time // simulation tick, default 1 ms

	// MigrationPenaltySame and MigrationPenaltyCross are the stall a thread
	// pays after migrating within a cluster / across clusters (cold caches).
	// Defaults: 50 µs and 300 µs.
	MigrationPenaltySame  Time
	MigrationPenaltyCross Time

	// Power is the machine's power model; nil disables energy accounting.
	Power PowerModel

	// MaxUnitsPerTick bounds how many work units one thread may complete in
	// a single tick, a guard against zero-work programs. Default 10000.
	MaxUnitsPerTick int
}

type coreState struct {
	id      int
	cluster hmp.ClusterKind
	runLen  int     // runnable threads currently placed here (O(1) RunQueueLen)
	run     []int32 // run queue: Global thread IDs placed here, ascending
	busy    float64 // cumulative busy µs (including charged overhead)
	stolen  Time    // pending manager overhead to steal from capacity
	tickUse float64 // µs of this tick spent busy (scratch for power model)
}

// Machine is the simulated HMP system.
type Machine struct {
	plat *hmp.Platform
	cfg  Config

	now     Time
	cores   []coreState
	procs   []*Process
	threads []*Thread
	levels  [hmp.NumClusters]int

	// online is the hotplug state: offline cores hold no threads, execute
	// nothing, and are invisible to placers. caps are per-cluster DVFS
	// ceilings (thermal capping): SetLevel clamps to them. clusterMask
	// caches the per-cluster CPU masks for OnlineCount.
	online      hmp.CPUMask
	allMask     hmp.CPUMask // mask of every core: online == allMask ⇒ no hotplug active
	caps        [hmp.NumClusters]int
	clusterMask [hmp.NumClusters]hmp.CPUMask

	// failed marks a crashed machine (Fail without a matching Heal): every
	// process was killed, no core has power, and energy integration is
	// frozen. preFailOnline is the hotplug state Heal restores.
	failed        bool
	preFailOnline hmp.CPUMask

	// runnable holds the Global IDs of runnable threads in ascending order,
	// maintained incrementally on block/unblock transitions. The per-core
	// run queues (coreState.run) are the placed subset. Placers iterate
	// these instead of rescanning all threads every tick.
	runnable []int32
	// During execute the run-queue lists are frozen: block/unblock
	// transitions flip flags and counters eagerly but defer the list edits,
	// recording touched threads in the journal; reconcile applies the net
	// membership changes once at the end of the tick. A unit completion
	// whose UnitDone callback immediately re-arms the thread — the
	// overwhelmingly common transition — therefore moves nothing at all.
	inExec  bool
	journal []*Thread

	// misplaced counts runnable threads placed outside their affinity mask
	// (or nowhere); while it is zero the mask balancer's repair pass and
	// per-thread mask checks are skipped entirely.
	misplaced int

	// placeEpoch counts changes to what the mask balancer reads: runnable
	// membership, thread placement and affinity, and the online mask.
	placeEpoch uint64

	execTick int64 // index of the tick execute is processing (or last processed)

	tickSec float64 // Seconds(cfg.TickLen), hoisted for integratePower
	tickUS  float64 // float64(cfg.TickLen)
	nLittle int     // plat.Clusters[Little].Cores, hoisted for cacheFactor

	// Power-integration memo: while a cluster's DVFS level, online-core
	// count, and every core's busy time are identical to the previous
	// tick — the steady state — the per-tick energy increment is reused
	// instead of recomputed (bit-for-bit identical, since the power model
	// is a pure function of those inputs).
	lastLevel   [hmp.NumClusters]int
	lastOnline  [hmp.NumClusters]int
	lastTickUse [hmp.NumClusters][]float64
	lastE       [hmp.NumClusters]float64
	lastPW      [hmp.NumClusters]float64
	powerValid  [hmp.NumClusters]bool

	// opm is cfg.Power's OnlinePowerModel extension, resolved once at New;
	// nil when the model does not distinguish offline cores.
	opm OnlinePowerModel

	placer  Placer
	daemons []Daemon
	timers  timerHeap

	energyJ        float64
	clusterEnergyJ [hmp.NumClusters]float64
	overhead       Time

	// freqScale caches plat.FreqScale per cluster and level (hot in execute).
	freqScale [hmp.NumClusters][]float64

	busyScratch [hmp.NumClusters][]float64
	ticks       int64

	// steadySkip is runUntil's certification back-off: ticks left to skip
	// the SteadyUntil attempt after a failed or too-short window, so churny
	// phases do not pay the scan every tick (see steadySkipTicks).
	steadySkip int
	// steadyOff disables steady-phase advancement (SetSteady); steady is the
	// reusable window plan SteadyUntil certifies and RunSteady executes.
	steadyOff bool
	steady    steadyPlan

	tracer *Tracer
	// nodeName is the machine's fleet identity (set by NewNode, "" for a
	// standalone machine), stamped onto every event the machine emits so
	// a tracer shared across nodes still attributes correctly.
	nodeName string
}

// New creates a machine over the platform with both clusters at their
// maximum frequency level and the default mask-balancing placer.
func New(plat *hmp.Platform, cfg Config) *Machine {
	if cfg.TickLen <= 0 {
		cfg.TickLen = Millisecond
	}
	if cfg.MigrationPenaltySame <= 0 {
		cfg.MigrationPenaltySame = 50 * Microsecond
	}
	if cfg.MigrationPenaltyCross <= 0 {
		cfg.MigrationPenaltyCross = 300 * Microsecond
	}
	if cfg.MaxUnitsPerTick <= 0 {
		cfg.MaxUnitsPerTick = 10000
	}
	balancer := NewMaskBalancer()
	balancer.Prime(plat.TotalCores())
	m := &Machine{plat: plat, cfg: cfg, placer: balancer}
	if o, ok := cfg.Power.(OnlinePowerModel); ok {
		m.opm = o
	}
	m.tickSec = Seconds(cfg.TickLen)
	m.tickUS = float64(cfg.TickLen)
	m.nLittle = plat.Clusters[hmp.Little].Cores
	m.online = hmp.AllCPUs(plat)
	m.allMask = m.online
	for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
		m.levels[k] = plat.Clusters[k].MaxLevel()
		m.caps[k] = plat.Clusters[k].MaxLevel()
		m.clusterMask[k] = hmp.ClusterMask(plat, k)
		m.busyScratch[k] = make([]float64, plat.Clusters[k].Cores)
		m.lastTickUse[k] = make([]float64, plat.Clusters[k].Cores)
		m.freqScale[k] = make([]float64, plat.Clusters[k].Levels())
		for lv := range m.freqScale[k] {
			m.freqScale[k][lv] = plat.FreqScale(k, lv)
		}
	}
	m.cores = make([]coreState, plat.TotalCores())
	for cpu := range m.cores {
		m.cores[cpu] = coreState{id: cpu, cluster: plat.ClusterOf(cpu)}
	}
	m.primeSteady()
	return m
}

// Platform returns the machine's platform description.
func (m *Machine) Platform() *hmp.Platform { return m.plat }

// Now returns the current simulated time.
func (m *Machine) Now() Time { return m.now }

// TickLen returns the machine's tick length.
func (m *Machine) TickLen() Time { return m.cfg.TickLen }

// SetPlacer installs the OS scheduler model.
func (m *Machine) SetPlacer(p Placer) { m.placer = p }

// AddDaemon registers a per-tick hook. Daemons run in registration order.
func (m *Machine) AddDaemon(d Daemon) {
	m.daemons = append(m.daemons, d)
	m.primeSteady()
}

// RemoveDaemon unregisters a previously added daemon (no-op if absent).
// Scenario engines use this to detach the manager of a departed application.
func (m *Machine) RemoveDaemon(d Daemon) {
	for i, x := range m.daemons {
		if x == d {
			m.daemons = append(m.daemons[:i], m.daemons[i+1:]...)
			return
		}
	}
}

// SetLevel sets the DVFS frequency level of cluster k (clamped to the grid
// and to the cluster's active frequency ceiling, see SetLevelCap). This is
// the simulated cpufreq actuation knob; per-cluster DVFS means every core of
// the cluster changes together, exactly the constraint MP-HARS's
// interference-aware adaptation exists to manage.
func (m *Machine) SetLevel(k hmp.ClusterKind, level int) {
	level = m.plat.Clusters[k].ClampLevel(level)
	if level > m.caps[k] {
		level = m.caps[k]
	}
	if m.tracer != nil && level != m.levels[k] {
		m.emit(Event{
			T: m.now, Kind: EvDVFS, Cluster: k, Level: level,
			KHz: m.plat.Clusters[k].KHz(level),
		})
	}
	m.levels[k] = level
}

// Level returns the current DVFS level of cluster k.
func (m *Machine) Level(k hmp.ClusterKind) int { return m.levels[k] }

// SetLevelCap installs a DVFS frequency ceiling on cluster k (clamped to the
// grid) — the simulated thermal-capping knob. The current level is lowered
// immediately if it exceeds the new ceiling, and SetLevel clamps to the
// ceiling until it is raised again (restore with the cluster's MaxLevel).
func (m *Machine) SetLevelCap(k hmp.ClusterKind, cap int) {
	cap = m.plat.Clusters[k].ClampLevel(cap)
	if m.tracer != nil && cap != m.caps[k] {
		m.emit(Event{
			T: m.now, Kind: EvCap, Cluster: k, Level: cap,
			KHz: m.plat.Clusters[k].KHz(cap),
		})
	}
	m.caps[k] = cap
	if m.levels[k] > cap {
		m.SetLevel(k, cap)
	}
}

// LevelCap returns the active DVFS ceiling of cluster k.
func (m *Machine) LevelCap(k hmp.ClusterKind) int { return m.caps[k] }

// CoreOnline reports whether the given CPU is online.
func (m *Machine) CoreOnline(cpu int) bool { return m.online.Has(cpu) }

// OnlineMask returns the mask of currently online CPUs.
func (m *Machine) OnlineMask() hmp.CPUMask { return m.online }

// OnlineCount returns how many cores of cluster k are online.
func (m *Machine) OnlineCount(k hmp.ClusterKind) int {
	return m.online.Intersect(m.clusterMask[k]).Count()
}

// SetCoreOnline changes the hotplug state of one CPU. Taking a core offline
// evicts every thread placed on it (runnable evictees become misplaced and
// are re-placed by the placer on the next tick; threads whose affinity
// intersects no online core stay unplaced and consume nothing); offline
// cores execute nothing and are invisible to placers. Bringing a core back
// online makes it placeable again. Must not be called from mid-execute
// program callbacks; call it between ticks or from a daemon.
func (m *Machine) SetCoreOnline(cpu int, online bool) {
	if cpu < 0 || cpu >= len(m.cores) {
		panic(fmt.Sprintf("sim: SetCoreOnline(%d): invalid cpu", cpu))
	}
	if m.inExec {
		panic("sim: SetCoreOnline called during execute")
	}
	if m.failed {
		// The machine is crashed: no core has power, so hotplug acts on the
		// state Heal will restore rather than on the (empty) live mask. No
		// threads run on a failed machine, so there is nothing to evict.
		if m.preFailOnline.Has(cpu) == online {
			return
		}
		if m.tracer != nil {
			m.emit(Event{T: m.now, Kind: EvHotplug, CPU: cpu, Online: online})
		}
		if online {
			m.preFailOnline = m.preFailOnline.Set(cpu)
		} else {
			m.preFailOnline = m.preFailOnline.Clear(cpu)
		}
		return
	}
	if m.online.Has(cpu) == online {
		return
	}
	if m.tracer != nil {
		m.emit(Event{T: m.now, Kind: EvHotplug, CPU: cpu, Online: online})
	}
	m.placeEpoch++
	if online {
		m.online = m.online.Set(cpu)
		return
	}
	m.online = m.online.Clear(cpu)
	for _, t := range m.threads {
		if t.core == cpu {
			m.evict(t)
		}
	}
}

// Fail crashes the machine: every resident process is killed without exiting
// cleanly (exactly the state Kill leaves — statistics and digests for the
// executed portion stay valid), every core loses power, and energy
// integration freezes at zero draw. The machine keeps stepping so a fleet's
// shared clock stays in lockstep; it just executes nothing. The hotplug
// state at the moment of the crash is remembered and restored by Heal.
// Idempotent; must not be called from mid-execute program callbacks.
func (m *Machine) Fail() {
	if m.inExec {
		panic("sim: Fail called during execute")
	}
	if m.failed {
		return
	}
	if m.tracer != nil {
		m.emit(Event{T: m.now, Kind: EvNodeDown})
	}
	m.failed = true
	m.placeEpoch++
	for _, p := range m.procs {
		m.Kill(p)
	}
	m.preFailOnline = m.online
	m.online = 0
	for _, t := range m.threads {
		if t.core >= 0 {
			m.evict(t)
		}
	}
	// A powered-off board draws nothing: report zero instantaneous power and
	// force a fresh model evaluation after Heal.
	for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
		m.lastPW[k] = 0
		m.powerValid[k] = false
	}
}

// Heal brings a crashed machine back: the pre-crash hotplug state (adjusted
// by any SetCoreOnline calls made while down) is restored and the machine
// accepts work again. Processes killed by the crash stay dead — recovery of
// their state is the fleet layer's job, via snapshots taken before the
// crash. Idempotent.
func (m *Machine) Heal() {
	if m.inExec {
		panic("sim: Heal called during execute")
	}
	if !m.failed {
		return
	}
	m.failed = false
	m.placeEpoch++
	m.online = m.preFailOnline
	m.preFailOnline = 0
	if m.tracer != nil {
		m.emit(Event{T: m.now, Kind: EvNodeUp})
	}
}

// Failed reports whether the machine is crashed (Fail without Heal).
func (m *Machine) Failed() bool { return m.failed }

// evict removes a thread from its current core (which must be valid),
// leaving it unplaced; the mask balancer's repair pass re-places runnable
// evictees.
func (m *Machine) evict(t *Thread) {
	if t.queued {
		m.cores[t.core].run = removeID(m.cores[t.core].run, int32(t.Global))
		t.queued = false
	}
	if !t.blocked {
		m.cores[t.core].runLen--
	}
	t.core = -1
	m.placeEpoch++
	m.updateMisplaced(t)
}

// Kill terminates a process: every thread is parked permanently, pending
// wakeups are discarded on delivery, and SetWork becomes a no-op. The
// process keeps its thread IDs and accumulated statistics, so digests and
// traces of the completed portion remain valid. Scenario engines use this
// for application departure.
func (m *Machine) Kill(p *Process) {
	if p.exited {
		return
	}
	p.exited = true
	for _, t := range p.Threads {
		m.makeBlocked(t)
		t.remaining = 0
	}
}

// Procs returns the processes spawned on the machine.
func (m *Machine) Procs() []*Process { return m.procs }

// NumProcs returns how many processes have ever been spawned or restored on
// the machine (exited ones included), in O(1). Fleet-wide rollups use it to
// skip the per-process walk on the many nodes of a large fleet that have
// never hosted anything.
func (m *Machine) NumProcs() int { return len(m.procs) }

// Threads returns every thread on the machine in spawn order.
func (m *Machine) Threads() []*Thread { return m.threads }

// Spawn creates a process running the program, with all threads initially
// blocked and affine to every CPU, then calls the program's Start hook (which
// typically hands out the first units of work).
func (m *Machine) Spawn(name string, prog Program, hbWindow int) *Process {
	if n := prog.NumThreads(); n <= 0 {
		panic(fmt.Sprintf("sim: program %q declares %d threads", name, n))
	}
	p := m.newProcess(name, prog, heartbeat.NewMonitor(name, hbWindow))
	prog.Start(p)
	return p
}

// newProcess builds a process on the machine — the one constructor behind
// Spawn and Restore: a fresh ID, one blocked, unplaced, all-CPU thread per
// program thread linked to its siblings, and the steady-window plan sized
// for the new thread count. The per-thread speed factors and the optional
// cache-sharing bonus are resolved here once, so the hot execute path reads
// plain fields instead of making an interface call and a type assertion per
// thread per tick.
func (m *Machine) newProcess(name string, prog Program, hb *heartbeat.Monitor) *Process {
	p := &Process{
		ID:   len(m.procs),
		Name: name,
		m:    m,
		prog: prog,
		HB:   hb,
	}
	if cs, ok := prog.(CacheSensitive); ok {
		p.cacheBonus = cs.CacheBonus()
	}
	all := hmp.AllCPUs(m.plat)
	for i, n := 0, prog.NumThreads(); i < n; i++ {
		t := &Thread{
			Global:   len(m.threads),
			Local:    i,
			Proc:     p,
			affinity: all,
			core:     -1,
			blocked:  true,
			lastRan:  -1,
		}
		for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
			t.speedFactor[k] = prog.SpeedFactor(i, k)
		}
		if i > 0 {
			prev := p.Threads[i-1]
			t.sibPrev, prev.sibNext = prev, t
		}
		p.Threads = append(p.Threads, t)
		m.threads = append(m.threads, t)
	}
	m.procs = append(m.procs, p)
	m.primeSteady()
	return p
}

// insertID inserts id into list keeping ascending order.
func insertID(list []int32, id int32) []int32 {
	i := len(list)
	for i > 0 && list[i-1] > id {
		i--
	}
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = id
	return list
}

// removeID removes id from list (which must contain it).
func removeID(list []int32, id int32) []int32 {
	for i, x := range list {
		if x == id {
			copy(list[i:], list[i+1:])
			return list[:len(list)-1]
		}
	}
	return list
}

// makeRunnable marks a blocked thread runnable, maintaining the incremental
// run-queue state (counters eagerly, list membership deferred mid-execute).
func (m *Machine) makeRunnable(t *Thread) {
	if !t.blocked {
		return
	}
	t.blocked = false
	if t.core >= 0 {
		m.cores[t.core].runLen++
	}
	m.updateMisplaced(t)
	if m.inExec {
		if !t.journaled {
			t.journaled = true
			m.journal = append(m.journal, t)
		}
		return
	}
	m.reconcileThread(t)
}

// makeBlocked parks a runnable thread.
func (m *Machine) makeBlocked(t *Thread) {
	if t.blocked {
		return
	}
	t.blocked = true
	if t.core >= 0 {
		m.cores[t.core].runLen--
	}
	if t.misplaced {
		t.misplaced = false
		m.misplaced--
	}
	if m.inExec {
		if !t.journaled {
			t.journaled = true
			m.journal = append(m.journal, t)
		}
		return
	}
	m.reconcileThread(t)
}

// updateMisplaced recomputes the thread's contribution to the machine's
// misplaced-runnable counter. Call after any change to the thread's
// runnability, placement, or affinity.
func (m *Machine) updateMisplaced(t *Thread) {
	mis := !t.blocked && (t.core < 0 || !t.affinity.Has(t.core))
	if mis != t.misplaced {
		t.misplaced = mis
		if mis {
			m.misplaced++
		} else {
			m.misplaced--
		}
	}
}

// reconcileThread syncs the thread's run-queue list membership with its
// current state.
func (m *Machine) reconcileThread(t *Thread) {
	runnable := !t.blocked
	if runnable != t.inRunnable {
		if runnable {
			m.runnable = insertID(m.runnable, int32(t.Global))
		} else {
			m.runnable = removeID(m.runnable, int32(t.Global))
		}
		t.inRunnable = runnable
		m.placeEpoch++
	}
	queued := runnable && t.core >= 0
	if queued != t.queued {
		if queued {
			m.cores[t.core].run = insertID(m.cores[t.core].run, int32(t.Global))
		} else {
			m.cores[t.core].run = removeID(m.cores[t.core].run, int32(t.Global))
		}
		t.queued = queued
	}
}

// reconcile applies the journaled membership changes at the end of a tick.
func (m *Machine) reconcile() {
	for _, t := range m.journal {
		t.journaled = false
		m.reconcileThread(t)
	}
	m.journal = m.journal[:0]
}

// Run advances the simulation by d simulated time.
func (m *Machine) Run(d Time) { m.RunUntil(m.now + d) }

// RunUntil advances the simulation until the clock reaches t. Stretches
// certified by SteadyUntil — busy-but-steady windows and, as their
// degenerate case, idle ones — run through RunSteady instead of being
// stepped tick by tick; the resulting state is bit-for-bit identical either
// way.
func (m *Machine) RunUntil(t Time) { m.runUntil(t, nil) }

// RunUntilCached is RunUntil with idle windows' energy replay routed
// through a JumpCache: identical resulting state, shared replay work.
func (m *Machine) RunUntilCached(t Time, jc *JumpCache) { m.runUntil(t, jc) }

func (m *Machine) runUntil(t Time, jc *JumpCache) {
	for m.now < t {
		if len(m.runnable) == 0 {
			// Idle windows are tried every tick and taken at any length:
			// certifying one is cheap, and SetSteady leaves them on.
			if until := m.SteadyUntil(t); until > m.now && m.runSteady(until, jc) {
				continue
			}
		} else if !m.steadyOff {
			if m.steadySkip > 0 {
				m.steadySkip--
			} else if until := m.SteadyUntil(t); until >= m.now+steadyMinTicks*m.cfg.TickLen && m.runSteady(until, jc) {
				continue
			} else {
				m.steadySkip = steadySkipTicks
			}
		}
		m.Step()
	}
}

// Step advances the simulation by one tick.
func (m *Machine) Step() {
	m.fireTimers()
	if m.placer != nil {
		m.placer.Place(m)
	}
	m.execute()
	m.integratePower()
	for _, d := range m.daemons {
		d.Tick(m)
	}
	m.now += m.cfg.TickLen
	m.ticks++
}

func (m *Machine) execute() {
	tick := m.cfg.TickLen
	m.execTick++
	// Freeze the run queues for the duration of the tick: threads unblocked
	// by a UnitDone callback mid-tick must not run until the next tick, and
	// threads blocked mid-tick still appear (and consume nothing) — exactly
	// the semantics of the historical full-thread rescan, without building
	// per-tick snapshots. List edits are journaled and applied at the end.
	m.inExec = true
	var speedByCluster [hmp.NumClusters]float64
	for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
		speedByCluster[k] = m.freqScale[k][m.levels[k]]
	}
	for i := range m.cores {
		c := &m.cores[i]
		c.tickUse = 0
		avail := float64(tick)
		// Manager overhead charged to this core steals capacity first.
		if c.stolen > 0 {
			steal := c.stolen
			if steal > tick {
				steal = tick
			}
			c.stolen -= steal
			avail -= float64(steal)
			c.tickUse += float64(steal)
			c.busy += float64(steal)
		}
		n := len(c.run)
		if n == 0 || avail <= 0 {
			continue
		}
		share := avail / float64(n)
		cluster := c.cluster
		speedBase := speedByCluster[cluster]
		for _, id := range c.run {
			t := m.threads[id]
			if t.penalty == 0 {
				// Fast path: no pending stall. The arithmetic below is the
				// first iteration of runThreadSlow's loop, verbatim, so the
				// results are bit-for-bit those of the general path.
				if t.blocked {
					continue // blocked mid-tick by an earlier UnitDone
				}
				speed := speedBase * t.speedFactor[cluster] * m.cacheFactor(t, cluster)
				if speed <= 0 {
					continue
				}
				needUS := t.remaining / speed * 1e6
				if needUS > share {
					// The unit outlives the tick: partial progress only.
					done := speed * share / 1e6
					t.remaining -= done
					t.workDone += done
					c.tickUse += share
					c.busy += share
					t.lastRan = m.execTick
					continue
				}
				used := m.runThreadSlow(t, share, speed)
				c.tickUse += used
				c.busy += used
				if used > 0 {
					t.lastRan = m.execTick
				}
				continue
			}
			used := m.runThread(t, c, share, speedBase)
			c.tickUse += used
			c.busy += used
			if used > 0 {
				t.lastRan = m.execTick
			}
		}
	}
	m.inExec = false
	m.reconcile()
}

// runThread gives thread t a budget of µs on core c and returns how much of
// it the thread actually consumed.
func (m *Machine) runThread(t *Thread, c *coreState, budget, speedBase float64) float64 {
	used := 0.0
	// Pay any pending migration penalty (stall burns CPU time).
	if t.penalty > 0 {
		pay := float64(t.penalty)
		if pay > budget {
			pay = budget
		}
		t.penalty -= Time(pay)
		budget -= pay
		used += pay
	}
	speed := speedBase * t.speedFactor[c.cluster] * m.cacheFactor(t, c.cluster)
	if speed <= 0 {
		return used
	}
	return used + m.runThreadSlow(t, budget, speed)
}

// runThreadSlow runs the unit-completion loop for a thread whose effective
// speed has been resolved.
func (m *Machine) runThreadSlow(t *Thread, budget, speed float64) float64 {
	used := 0.0
	for completions := 0; budget > 0 && !t.blocked; {
		needUS := t.remaining / speed * 1e6
		if needUS > budget {
			done := speed * budget / 1e6
			t.remaining -= done
			t.workDone += done
			used += budget
			return used
		}
		// Unit completes within the budget.
		budget -= needUS
		used += needUS
		t.workDone += t.remaining
		t.remaining = 0
		completions++
		if completions > m.cfg.MaxUnitsPerTick {
			panic(fmt.Sprintf("sim: thread %s/%d completed >%d units in one tick; zero-size work units?",
				t.Proc.Name, t.Local, m.cfg.MaxUnitsPerTick))
		}
		m.makeBlocked(t) // program must hand out work to keep running
		t.Proc.prog.UnitDone(t.Proc, t.Local)
	}
	return used
}

// cacheFactor returns the constructive cache-sharing multiplier for thread t
// running on cluster k: programs that declare a cache bonus run faster when
// an adjacent sibling thread (ID ± 1) is placed on the same cluster. This is
// the effect the paper's chunk-based scheduler exploits. The bonus is
// resolved once at Spawn (Process.cacheBonus).
func (m *Machine) cacheFactor(t *Thread, k hmp.ClusterKind) float64 {
	bonus := t.Proc.cacheBonus
	if bonus == 0 {
		return 1
	}
	// ClusterOf(core) == k, inlined for the two-cluster platform:
	// (core < nLittle) == (k == Little).
	little := k == hmp.Little
	if nb := t.sibPrev; nb != nil && nb.core >= 0 && (nb.core < m.nLittle) == little {
		return 1 + bonus
	}
	if nb := t.sibNext; nb != nil && nb.core >= 0 && (nb.core < m.nLittle) == little {
		return 1 + bonus
	}
	return 1
}

func (m *Machine) integratePower() {
	if m.cfg.Power == nil || m.failed {
		return
	}
	for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
		busy := m.busyScratch[k]
		last := m.lastTickUse[k]
		first := m.plat.FirstCPU(k)
		// Online-aware models see the cluster's online-core count so that
		// hotplugged-off cores stop drawing leakage; while every core is
		// online (the overwhelmingly common case, checked against the full
		// mask in O(1)) the historical ClusterPower path runs unchanged.
		online := m.plat.Clusters[k].Cores
		if m.opm != nil && m.online != m.allMask {
			online = m.OnlineCount(k)
		}
		changed := !m.powerValid[k] || m.levels[k] != m.lastLevel[k] ||
			online != m.lastOnline[k]
		for i := range busy {
			tu := m.cores[first+i].tickUse
			if tu != last[i] {
				last[i] = tu
				busy[i] = tu / m.tickUS
				changed = true
			}
		}
		if changed {
			var p float64
			if m.opm != nil && online != m.plat.Clusters[k].Cores {
				p = m.opm.ClusterPowerOnline(k, m.levels[k], busy, online)
			} else {
				p = m.cfg.Power.ClusterPower(k, m.levels[k], busy)
			}
			m.lastE[k] = p * m.tickSec
			m.lastPW[k] = p
			m.lastLevel[k] = m.levels[k]
			m.lastOnline[k] = online
			m.powerValid[k] = true
		}
		e := m.lastE[k]
		m.clusterEnergyJ[k] += e
		m.energyJ += e
	}
}

// Migrate places thread t on the given CPU, applying a migration stall if
// the core actually changes. Placers and runtime managers call this.
func (m *Machine) Migrate(t *Thread, cpu int) {
	if cpu == t.core {
		return
	}
	if cpu < 0 || cpu >= len(m.cores) {
		panic(fmt.Sprintf("sim: migrate to invalid cpu %d", cpu))
	}
	if !m.online.Has(cpu) {
		panic(fmt.Sprintf("sim: migrate to offline cpu %d", cpu))
	}
	if t.core >= 0 {
		if m.plat.ClusterOf(t.core) != m.plat.ClusterOf(cpu) {
			t.penalty += m.cfg.MigrationPenaltyCross
		} else {
			t.penalty += m.cfg.MigrationPenaltySame
		}
		t.migrations++
	}
	if m.tracer != nil {
		m.emit(Event{
			T: m.now, Kind: EvMigrate, Proc: t.Proc.Name, Thread: t.Local,
			From: t.core, To: cpu,
		})
	}
	if t.queued {
		m.cores[t.core].run = removeID(m.cores[t.core].run, int32(t.Global))
		t.queued = false
	}
	if !t.blocked && t.core >= 0 {
		m.cores[t.core].runLen--
	}
	t.core = cpu
	m.placeEpoch++
	if !t.blocked {
		c := &m.cores[cpu]
		c.runLen++
		c.run = insertID(c.run, int32(t.Global))
		t.queued = true
	}
	m.updateMisplaced(t)
}

// ChargeOverhead accounts d µs of runtime-manager CPU time against the given
// CPU: the time is stolen from the core's capacity over the following ticks
// and added to the machine-wide overhead counter (the paper's Figure 5.3(b)
// "CPU utilization" of HARS).
func (m *Machine) ChargeOverhead(cpu int, d Time) {
	if d <= 0 {
		return
	}
	if cpu < 0 || cpu >= len(m.cores) || !m.online.Has(cpu) {
		cpu = m.firstOnline()
	}
	m.cores[cpu].stolen += d
	m.overhead += d
}

// firstOnline returns the lowest-numbered online CPU (CPU 0 if none is
// online, so overhead accounting never loses time).
func (m *Machine) firstOnline() int {
	for cpu := range m.cores {
		if m.online.Has(cpu) {
			return cpu
		}
	}
	return 0
}

// Overhead returns the total manager CPU time charged so far.
func (m *Machine) Overhead() Time { return m.overhead }

// OverheadUtil returns charged manager CPU time as a fraction of elapsed
// time on one core — the paper's runtime-overhead metric.
func (m *Machine) OverheadUtil() float64 {
	if m.now == 0 {
		return 0
	}
	return float64(m.overhead) / float64(m.now)
}

// EnergyJ returns total energy drawn since construction, in joules.
func (m *Machine) EnergyJ() float64 { return m.energyJ }

// ClusterEnergyJ returns the energy drawn by cluster k, in joules.
func (m *Machine) ClusterEnergyJ(k hmp.ClusterKind) float64 { return m.clusterEnergyJ[k] }

// LastTickPowerW returns the watts cluster k drew during the most recently
// integrated tick (0 before the first tick, or when the machine has no power
// model). Thermal models read this as their per-tick heat input.
func (m *Machine) LastTickPowerW(k hmp.ClusterKind) float64 { return m.lastPW[k] }

// AvgPowerW returns average power since t=0 in watts.
func (m *Machine) AvgPowerW() float64 {
	if m.now == 0 {
		return 0
	}
	return m.energyJ / Seconds(m.now)
}

// BusyTime returns the cumulative busy time of the given CPU.
func (m *Machine) BusyTime(cpu int) Time { return Time(m.cores[cpu].busy) }

// Util returns the lifetime utilization of the given CPU in [0, 1].
func (m *Machine) Util(cpu int) float64 {
	if m.now == 0 {
		return 0
	}
	return m.cores[cpu].busy / float64(m.now)
}

// RunQueueLen returns how many runnable threads are currently placed on cpu.
// The count is maintained incrementally on block, unblock, and migrate
// transitions, so this is O(1); placers use it for balancing decisions.
func (m *Machine) RunQueueLen(cpu int) int {
	return m.cores[cpu].runLen
}

// RunnableCount returns how many threads are currently runnable machine-wide
// (placed or not), in O(1). Fleet placement policies use it as the node's
// instantaneous load. During execute the count may lag mid-tick transitions;
// daemons and between-tick callers always see the reconciled value.
func (m *Machine) RunnableCount() int {
	return len(m.runnable)
}
