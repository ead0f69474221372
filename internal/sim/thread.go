package sim

import (
	"fmt"

	"repro/internal/heartbeat"
	"repro/internal/hmp"
)

// Thread is one simulated kernel thread of a process.
type Thread struct {
	Global int // machine-wide thread ID
	Local  int // thread ID within its process (the paper orders threads by ID)
	Proc   *Process

	affinity hmp.CPUMask
	core     int // current CPU, -1 before first placement
	blocked  bool
	// queued and inRunnable track membership in the core run queue and the
	// machine runnable list; during execute the lists are frozen and these
	// may lag the blocked flag until the end-of-tick reconcile. journaled
	// marks enrolment in that reconcile pass; misplaced mirrors the
	// thread's contribution to the machine's misplaced-runnable counter.
	queued     bool
	inRunnable bool
	journaled  bool
	misplaced  bool
	remaining  float64 // work units left in the current unit
	penalty    Time    // pending migration stall

	// speedFactor caches Program.SpeedFactor per cluster, resolved at Spawn
	// so the per-tick execute path makes no interface calls; sibPrev and
	// sibNext link the ID-adjacent threads of the process for the
	// cache-sharing check.
	speedFactor      [hmp.NumClusters]float64
	sibPrev, sibNext *Thread

	lastRan    int64 // execute-tick stamp of the last tick this thread ran
	migrations int
	workDone   float64
}

// Core returns the CPU the thread is currently placed on (-1 if none).
func (t *Thread) Core() int { return t.core }

// Runnable reports whether the thread has work and is not blocked.
func (t *Thread) Runnable() bool { return !t.blocked }

// Affinity returns the thread's CPU affinity mask.
func (t *Thread) Affinity() hmp.CPUMask { return t.affinity }

// RanLastTick reports whether the thread consumed CPU in the last executed
// tick; the GTS load tracker feeds on this. (Implemented as a tick-stamp
// comparison so execute does not reset a flag on every thread every tick.)
func (t *Thread) RanLastTick() bool { return t.lastRan == t.Proc.m.execTick }

// Migrations returns how many times the thread has changed cores.
func (t *Thread) Migrations() int { return t.migrations }

// WorkDone returns the total work units the thread has retired.
func (t *Thread) WorkDone() float64 { return t.workDone }

// Remaining returns the work left in the thread's current unit.
func (t *Thread) Remaining() float64 { return t.remaining }

// Program is the behaviour of a simulated application. Implementations live
// in internal/workload (PARSEC-like models) and internal/power (the profiling
// microbenchmark).
type Program interface {
	// Name identifies the program (e.g. "bodytrack").
	Name() string
	// NumThreads is how many threads the process spawns.
	NumThreads() int
	// Start is called once at spawn; it must hand out initial work via
	// Process.SetWork (or schedule wakeups) for the threads that should run.
	Start(p *Process)
	// UnitDone is called whenever thread `local` completes a work unit. The
	// thread is blocked at that moment; the implementation gives it more
	// work (SetWork), leaves it blocked, wakes other threads, and emits
	// heartbeats as the application logic dictates.
	UnitDone(p *Process, local int)
	// SpeedFactor is the per-cluster IPC multiplier of thread `local`
	// relative to a little core (1.0 = little-core speed). The nominal
	// big-cluster value is the platform IPC ratio (1.5); memory-bound
	// applications like blackscholes return 1.0 for both clusters.
	SpeedFactor(local int, k hmp.ClusterKind) float64
}

// CacheSensitive is an optional Program extension: programs whose adjacent
// threads share data constructively run CacheBonus() faster when a
// neighbouring thread (ID ± 1) sits on the same cluster.
type CacheSensitive interface {
	CacheBonus() float64
}

// ThreadGrouper is an optional Program extension exposing the application's
// thread hierarchy (the paper's §3.1.4 second discussion item): the sizes of
// contiguous thread-ID groups, e.g. one entry per pipeline stage. Hierarchy-
// aware schedulers use it to give every group a fair share of each core
// type.
type ThreadGrouper interface {
	ThreadGroups() []int
}

// Process is a running instance of a Program on a Machine.
type Process struct {
	ID   int
	Name string
	// HB is the process's Application Heartbeats monitor.
	HB *heartbeat.Monitor

	m          *Machine
	prog       Program
	cacheBonus float64 // CacheSensitive.CacheBonus resolved at Spawn (0 if none)
	exited     bool    // set by Machine.Kill: the process has departed
	Threads    []*Thread
}

// Exited reports whether the process has been terminated by Machine.Kill.
func (p *Process) Exited() bool { return p.exited }

// Machine returns the machine the process runs on.
func (p *Process) Machine() *Machine { return p.m }

// Program returns the process's program.
func (p *Process) Program() Program { return p.prog }

// Now returns the current simulated time.
func (p *Process) Now() Time { return p.m.Now() }

// SetWork gives thread `local` a fresh unit of `units` work and makes it
// runnable. Units must be positive.
func (p *Process) SetWork(local int, units float64) {
	if p.exited {
		return // late wakeups and callbacks of a departed process are dropped
	}
	if units <= 0 {
		panic(fmt.Sprintf("sim: SetWork(%s/%d, %v): units must be positive", p.Name, local, units))
	}
	t := p.Threads[local]
	t.remaining = units
	p.m.makeRunnable(t)
}

// Block parks thread `local`; it consumes no CPU until given work again.
func (p *Process) Block(local int) {
	t := p.Threads[local]
	p.m.makeBlocked(t)
	t.remaining = 0
}

// Blocked reports whether thread `local` is parked.
func (p *Process) Blocked(local int) bool { return p.Threads[local].blocked }

// Beat emits an application heartbeat at the current simulated time.
func (p *Process) Beat() heartbeat.Record {
	if p.m.tracer != nil {
		p.m.emit(Event{T: p.m.Now(), Kind: EvBeat, Proc: p.Name})
	}
	return p.HB.Beat(p.m.Now())
}

// WakeAt schedules thread `local` to receive `units` of work at simulated
// time `at` (it fires on the first tick whose start time is ≥ at). The
// profiling microbenchmark uses this for duty-cycled load, and workloads use
// it for heartbeat-less startup phases.
func (p *Process) WakeAt(local int, at Time, units float64) {
	if p.exited {
		return
	}
	if units <= 0 {
		panic(fmt.Sprintf("sim: WakeAt(%s/%d, %v): units must be positive", p.Name, local, units))
	}
	p.m.timers.push(timerEntry{at: at, proc: p, local: local, units: units})
}

// SetAffinity applies a CPU affinity mask to thread `local` — the simulated
// sched_setaffinity. An empty intersection with the machine would strand the
// thread, so an empty mask panics.
func (p *Process) SetAffinity(local int, mask hmp.CPUMask) {
	if mask == 0 {
		panic(fmt.Sprintf("sim: SetAffinity(%s/%d): empty mask", p.Name, local))
	}
	t := p.Threads[local]
	if t.affinity == mask {
		return
	}
	t.affinity = mask
	p.m.placeEpoch++
	p.m.updateMisplaced(t)
}

// AffinityAll resets every thread of the process to run anywhere.
func (p *Process) AffinityAll() {
	all := hmp.AllCPUs(p.m.plat)
	for i := range p.Threads {
		p.SetAffinity(i, all)
	}
}

// WorkDone sums the retired work units of all threads of the process.
func (p *Process) WorkDone() float64 {
	var sum float64
	for _, t := range p.Threads {
		sum += t.workDone
	}
	return sum
}
