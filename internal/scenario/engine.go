package scenario

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/decision"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/gts"
	"repro/internal/heartbeat"
	"repro/internal/hmp"
	"repro/internal/mphars"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// Options configures a scenario run. The zero value selects the
// process-wide max-rate calibration and no trace output. Every machine —
// the legacy single one on the default platform, or each declared node on
// its own — builds the ground-truth power model and the synthetic linear
// estimator model (DefaultModel) for its platform.
type Options struct {
	// MaxRate resolves a benchmark's maximum achievable heartbeat rate for
	// fractional targets. Nil selects the GTS calibration of gts.Calibration,
	// run once per process for each (board content, bench, threads). A
	// non-nil override is consulted on every admission, for every node —
	// callers supplying one to a multi-node scenario with heterogeneous
	// platforms are responsible for the rates making sense on every node.
	MaxRate func(short string, threads int) float64

	// Trace, when non-nil, receives the per-sample metric trace (see the
	// package comment). The trace is also folded into Result.TraceDigest
	// whether or not it is written anywhere.
	Trace io.Writer

	// PerTick, when non-nil, runs as a machine daemon every tick before the
	// managers — on every node of a multi-node run; property tests install
	// invariant checkers here.
	PerTick func(*sim.Machine)

	// Strict makes the engine verify runtime invariants after every applied
	// action and every trace sample — no runnable thread on an offline
	// core, cluster levels within their ceilings, the mphars-* partitioning
	// invariants, and the fleet scheduler's conservation invariants —
	// returning an error on the first violation. Property tests run with
	// Strict on.
	Strict bool

	// CheckEveryTick runs the same invariant suite as Strict after every
	// fleet tick, not just at actions and samples (the hars-scenario
	// -check debug flag; fuzz and property runs turn it on). Costlier, but
	// it catches violations that self-heal before the next sample.
	// Its hook does not implement fleet.Sleeper, so it also forces the
	// fleet into per-tick lockstep — which is exactly what per-tick
	// checking needs.
	CheckEveryTick bool

	// Lockstep forces the fleet's reference per-tick advancement strategy
	// instead of the event-driven core. Results are bit-for-bit identical
	// either way (the equivalence suite proves it); the switch exists for
	// benchmarking and for that proof.
	Lockstep bool

	// NoSteady disables the machines' steady-phase turbo path
	// (sim.Machine.SetSteady(false)), leaving the general per-tick loop to
	// run every busy stretch. Results are bit-for-bit identical either way
	// (the steady equivalence suite proves it); the switch exists for
	// benchmarking and for that proof. Mirrors the hars-scenario -steady
	// flag.
	NoSteady bool

	// WakeScan once selected between two fleet.Scheduler NextWake
	// implementations. It is kept so existing callers still compile.
	//
	// Deprecated: has no effect; NextWake has one implementation.
	WakeScan bool

	// Workers once sharded node advancement across goroutines. It is kept
	// so existing callers still compile.
	//
	// Deprecated: has no effect; nodes advance sequentially.
	Workers int

	// TraceDecisions forces decision tracing on, exactly as if the
	// scenario declared an enabled "decisions" block (the hars-scenario
	// -trace-decisions flag). The scenario document itself is untouched.
	TraceDecisions bool

	// ForceDecisions maps decision ID → node name, overriding the
	// scheduler's choice at exactly those decisions — the counterfactual
	// replay seam (see RunCounterfactual). Decision IDs are deterministic
	// whether or not tracing is on, so an ID recorded in one run addresses
	// the same decision in the forced replay. Unknown node names reject
	// the run.
	ForceDecisions map[uint64]string
}

// AppResult summarizes one application after the run.
type AppResult struct {
	Name       string
	Beats      int64
	Work       float64
	Migrations int  // thread-level core migrations, continuous across nodes
	Arrived    bool // the arrival fired (always true once start_ms passed)
	Departed   bool // the departure fired after the app had run
	// Skipped: the app was never admitted — every partition stayed full
	// from its arrival to the end of the run (the app never spawned).
	Skipped bool
	// Queued: the arrival had to wait in the admission queue at least once
	// (it may still have been admitted later; see Skipped).
	Queued bool
	// Node is the node the app last ran on ("" while never admitted, and
	// for the legacy single machine).
	Node string
	// NodeMigrations counts fleet-level moves between nodes.
	NodeMigrations int
	// MigrationDelayUS is the total time the app spent frozen by
	// work-conserving moves: checkpoint freeze and transfer charges, plus
	// any re-queue wait while its captured state was parked.
	MigrationDelayUS sim.Time
	// SLOSamples/SLOMisses count the trace samples scored against the
	// app's SLO and how many delivered less than its target rate (always
	// zero for apps without an "slo" block).
	SLOSamples int
	SLOMisses  int
	// Recoveries counts crash recoveries: how many times the app was
	// salvaged off a node declared failed (and re-placed from its last
	// background snapshot, or restarted when none existed yet).
	Recoveries int
	// LostWorkUS totals the running time rolled back by crashes: for each
	// crash, the time since the app's last background snapshot (since its
	// incarnation start when no snapshot existed). Bounded per crash by
	// the faults block's checkpoint_every_ms.
	LostWorkUS sim.Time
	// Stranded: the run ended with the app parked in the admission queue,
	// its state frozen in a checkpoint — it ran, was captured off a node
	// by a migration or a crash, and was never re-admitted. With any
	// surviving capacity the recovery pass should drain these to zero.
	Stranded bool
}

// NodeResult summarizes one node of the run.
type NodeResult struct {
	Name       string // "" for the legacy single machine
	Manager    string
	Machine    *sim.Machine
	EnergyJ    float64
	OverheadUS sim.Time

	// MP is the node's MP-HARS manager (nil for other manager kinds);
	// Thermal its closed-loop governor (nil when the node models no heat).
	MP      *mphars.Manager
	Thermal *thermal.Governor
}

// Result is the outcome of one scenario run.
type Result struct {
	Scenario *Scenario
	Machine  *sim.Machine // the first node's machine (the only one, legacy)
	Apps     []AppResult

	// Nodes describes every machine of the run in index order — exactly
	// one entry for a classic scenario, one per nodes entry otherwise.
	Nodes     []NodeResult
	Placement string // resolved placement policy name

	EnergyJ     float64  // fleet-wide rollup (sum over nodes)
	OverheadUS  sim.Time // fleet-wide rollup
	Samples     int
	TraceDigest uint64 // FNV-64a over the emitted trace bytes

	// Admission-control counters: how many arrivals had to queue for a
	// free partition, and how many of those were never admitted before
	// the run (or their departure) ended.
	QueuedArrivals  int
	DroppedArrivals int
	// NodeMigrations counts fleet-level application moves.
	NodeMigrations int
	// MigrationDelayUS totals the freeze time charged by work-conserving
	// moves across all apps; SLOSamples/SLOMisses total the per-app SLO
	// scoring (see AppResult).
	MigrationDelayUS sim.Time
	SLOSamples       int
	SLOMisses        int

	// Fault-injection rollups (all zero without a faults block):
	// NodeCrashes counts applied node crashes, Recoveries and LostWorkUS
	// total the per-app counters, TransferFails counts transient transfer
	// failures that sent an app into retry backoff.
	NodeCrashes   int
	Recoveries    int
	LostWorkUS    sim.Time
	TransferFails int
	// StrandedApps counts apps still parked in the admission queue with a
	// captured checkpoint when the run ended (see AppResult.Stranded).
	StrandedApps int

	// Decisions is the always-on scheduler decision rollup (decision
	// counts by kind, score margins, queue-wait histogram) — populated
	// whether or not decision tracing is on. DecisionRecords holds the
	// recorded decision stream when the scenario's decisions block (or
	// Options.TraceDecisions) enabled it, up to its Keep cap;
	// DecisionsDropped counts the records beyond it (they still reached
	// the trace).
	Decisions        decision.Rollup
	DecisionRecords  []decision.Record
	DecisionsDropped int64

	// MP is the MP-HARS manager of legacy mphars-* scenarios (nil
	// otherwise — multi-node runs carry theirs in Nodes); Managers maps
	// app name → single-application HARS manager. Tests use these for
	// consistency checks.
	MP       *mphars.Manager
	Managers map[string]*core.Manager

	// Thermal is the closed-loop governor of legacy thermal-enabled
	// scenarios (nil otherwise; multi-node runs carry theirs in Nodes).
	Thermal *thermal.Governor
}

// DefaultModel returns the synthetic linear power model handed to the
// managers' estimators — the same fixture the repository's golden-digest
// tests use (power.SyntheticLinearModel), so event-free scenario runs are
// bit-identical to the direct-run path.
func DefaultModel(plat *hmp.Platform) *power.LinearModel {
	return power.SyntheticLinearModel(plat)
}

// action ordering priorities at equal timestamps (see the package comment).
const (
	prioPlatform = iota
	prioDepart
	prioArrive
	prioAppEvent
)

type action struct {
	at   sim.Time
	prio int
	seq  int
	ev   *Event       // platform and app events
	app  *appRun      // arrivals and departures
	fa   *faultAction // fault injections
}

// faultAction kinds.
const (
	faultCrash = iota
	faultHeal
	faultCoreFail
)

// faultAction is one expanded fault-timeline entry: a node crash, the
// matching recovery, or a permanent core failure.
type faultAction struct {
	kind int
	node int // fleet node index
	cpu  int // faultCoreFail only
	// until is the crash's recovery deadline (faultCrash only): the matching
	// heal applies only once the node's downUntil — the max over overlapping
	// crash windows — has been reached. math.MaxInt64 = never recovers.
	until sim.Time
}

// appRun is the engine's per-application state: the checkpointable
// lifecycle identity the fleet scheduler moves between nodes. While the
// app runs, proc is its live incarnation; while its state is frozen
// between nodes (mid-migration, or parked in the queue after a failed
// move), ckpt holds the captured run state and proc is nil.
type appRun struct {
	spec *AppSpec
	fapp *fleet.App // scheduler record (Payload points back here)
	node *nodeRun   // current placement, nil while queued / never admitted
	prog sim.Program
	proc *sim.Process
	mgr  *core.Manager // on hars-* nodes
	res  AppResult

	// Checkpointed run state between incarnations (work-conserving
	// migration): set by Checkpoint, consumed by the next Admit. ckptAt
	// is when the app was frozen; delayUS totals frozen time.
	ckpt    *sim.ProcSnapshot
	ckptAt  sim.Time
	delayUS sim.Time

	// Runtime re-targeting state from scripted target/phase events, kept
	// here so a migration (or an admission delayed past the event)
	// re-applies the scripted change instead of reverting to the spec.
	curTarget *TargetSpec
	curFrac   float64
	curScale  float64

	// SLO scoring tallies (see scoreSLO).
	sloSamples int
	sloMisses  int

	// Crash-recovery state (faults runs only): lastSnap is the retained
	// background snapshot (the restore point a crash falls back to) and
	// lastSnapAt the time work up to which it preserves; incarnAt is when
	// the current incarnation started running, the fallback loss baseline
	// while no snapshot exists yet.
	lastSnap   *sim.ProcSnapshot
	lastSnapAt sim.Time
	incarnAt   sim.Time
}

// beats returns the app's cumulative heartbeat count — continuous across
// nodes, read from the live incarnation or the frozen checkpoint.
func (a *appRun) beats() int64 {
	switch {
	case a.proc != nil:
		return a.proc.HB.Count()
	case a.ckpt != nil:
		return a.ckpt.Beats()
	}
	return 0
}

// work returns the app's cumulative retired work.
func (a *appRun) work() float64 {
	switch {
	case a.proc != nil:
		return a.proc.WorkDone()
	case a.ckpt != nil:
		return a.ckpt.WorkDone()
	}
	return 0
}

// threadMigrations returns the app's cumulative core-migration count.
func (a *appRun) threadMigrations() int {
	switch {
	case a.proc != nil:
		mig := 0
		for _, t := range a.proc.Threads {
			mig += t.Migrations()
		}
		return mig
	case a.ckpt != nil:
		return a.ckpt.Migrations()
	}
	return 0
}

// targetSpec returns the app's current target parameters: the last scripted
// target event's values when one fired, the spec's otherwise.
func (a *appRun) targetSpec() (*TargetSpec, float64) {
	if a.curTarget != nil || a.curFrac > 0 {
		return a.curTarget, a.curFrac
	}
	return a.spec.Target, a.spec.TargetFrac
}

// nodeRun is the engine's per-node state: the fleet node plus the typed
// handles and resolved configuration.
type nodeRun struct {
	rn    resolvedNode
	fn    *fleet.Node
	m     *sim.Machine
	model *power.LinearModel
	mp    *mphars.Manager
	gov   *thermal.Governor

	// downUntil is the node's pending recovery deadline while crashed: the
	// max over all crash windows covering it, so overlapping crashes extend
	// the outage instead of healing early.
	downUntil sim.Time
}

type daemonFunc func(*sim.Machine)

func (f daemonFunc) Tick(m *sim.Machine) { f(m) }

// engine carries one run's state.
type engine struct {
	sc        *Scenario
	opts      Options
	fleetMode bool // the scenario declares nodes
	nodes     []*nodeRun
	fl        *fleet.Fleet
	sched     *fleet.Scheduler
	apps      []*appRun
	appSpecs  []AppSpec // declared apps + arrival-stream expansions
	ckptCost  sim.CheckpointCost

	trace *bufio.Writer
	out   io.Writer // trace sink: the digest hash, plus Options.Trace if set
	hash  interface {
		io.Writer
		Sum64() uint64
	}
	samples int

	// Fault-injection state (all nil/zero without a faults block, keeping
	// fault-free runs on the exact legacy path).
	faultCfg *fault.Config
	coin     *fault.Coin
	crashes  int
	tickErr  error // first per-tick invariant violation (CheckEveryTick)

	// Decision-tracing state (nil/false without a decisions block or
	// TraceDecisions, keeping untraced runs byte-identical).
	decOn  bool
	decLog *decision.Log
}

// Run executes the scenario and returns its result. The run is fully
// deterministic: the same scenario and options always produce the same
// result and byte-identical trace output — whether it drives one machine
// or a fleet.
func Run(sc *Scenario, opts Options) (*Result, error) {
	fleetMode := len(sc.Nodes) > 0
	resolved, appSpecs, err := sc.resolveAndValidate()
	if err != nil {
		return nil, err
	}
	// The registry injects the scenario's checkpoint-cost model into the
	// policy (the SLO-aware one prices migration destinations with it).
	ckptCost := sc.Checkpoint.Cost()
	policy, err := fleet.PolicyByName(sc.Placement, ckptCost)
	if err != nil {
		return nil, err
	}

	e := &engine{
		sc: sc, opts: opts, fleetMode: fleetMode,
		appSpecs: appSpecs,
		ckptCost: ckptCost,
		hash:     fnv.New64a(),
	}
	out := io.Writer(e.hash)
	if opts.Trace != nil {
		e.trace = bufio.NewWriter(opts.Trace)
		out = io.MultiWriter(e.hash, e.trace)
	}
	e.out = out

	for i := range resolved {
		nr, err := e.buildNode(resolved[i])
		if err != nil {
			return nil, err
		}
		e.nodes = append(e.nodes, nr)
	}
	fnodes := make([]*fleet.Node, len(e.nodes))
	for i, nr := range e.nodes {
		fnodes[i] = nr.fn
	}
	e.fl, err = fleet.New(fnodes...)
	if err != nil {
		return nil, err
	}
	e.fl.SetLockstep(opts.Lockstep)
	if opts.NoSteady {
		e.fl.SetSteady(false)
	}
	var fcfg *fault.Config
	if sc.Faults != nil {
		c := sc.Faults.Runtime()
		fcfg = &c
		e.faultCfg = fcfg
		e.coin = fault.NewCoin(c)
	}
	// Decision tracing: the scenario's block or the CLI override arms the
	// observer (a bounded in-memory log teed with the gated "d" trace
	// lines); a force map resolves node names to fleet indices up front.
	var obs decision.Sink
	e.decOn = opts.TraceDecisions || (sc.Decisions != nil && sc.Decisions.Enabled)
	if e.decOn {
		keep := 0
		if sc.Decisions != nil {
			keep = sc.Decisions.Keep
		}
		e.decLog = &decision.Log{Max: keep}
		obs = decision.Tee(e.decLog, decision.SinkFunc(e.traceDecision))
	}
	var force map[uint64]int
	if len(opts.ForceDecisions) > 0 {
		force = make(map[uint64]int, len(opts.ForceDecisions))
		for id, name := range opts.ForceDecisions {
			nr := e.nodeRunByName(name)
			if nr == nil {
				return nil, fmt.Errorf("scenario: force decision %d: unknown node %q", id, name)
			}
			force[id] = nr.rn.idx
		}
	}
	migrate := sim.Time(sc.MigrateEveryMS) * sim.Millisecond
	e.sched = fleet.NewScheduler(e.fl, e, fleet.Config{
		Policy:       policy,
		MigrateEvery: migrate,
		Fault:        fcfg,
		Observer:     obs,
		Force:        force,
	})
	if opts.CheckEveryTick {
		// Registered after the scheduler's hook, so each tick is checked in
		// its settled post-scheduling state.
		e.fl.AddHook(fleet.HookFunc(func(*fleet.Fleet) {
			if e.tickErr == nil {
				e.tickErr = e.checkStrict()
			}
		}))
	}

	for i := range e.appSpecs {
		spec := &e.appSpecs[i]
		a := &appRun{spec: spec, res: AppResult{Name: spec.Name}}
		a.fapp = &fleet.App{Name: spec.Name, Payload: a}
		if spec.Node != "" {
			a.fapp.Pinned = e.nodeRunByName(spec.Node).fn
		}
		if spec.SLO != nil {
			a.fapp.SLO = &fleet.SLO{TargetHPS: spec.SLO.TargetHPS, SlackMS: spec.SLO.SlackMS}
		}
		e.apps = append(e.apps, a)
	}
	actions := e.buildActions()

	e.writeHeader()

	end := sim.Time(sc.DurationMS) * sim.Millisecond
	every := sim.Time(sc.SampleEveryMS) * sim.Millisecond
	if every <= 0 {
		every = 100 * sim.Millisecond
	}
	nextSample := sim.Time(0)
	ai := 0
	for {
		for ai < len(actions) && actions[ai].at <= e.fl.Now() {
			e.apply(actions[ai])
			if opts.Strict {
				if err := e.checkStrict(); err != nil {
					return nil, err
				}
			}
			ai++
		}
		if e.fl.Now() >= nextSample {
			e.sample()
			nextSample += every
			if opts.Strict {
				if err := e.checkStrict(); err != nil {
					return nil, err
				}
			}
		}
		if e.fl.Now() >= end {
			break
		}
		next := end
		if ai < len(actions) && actions[ai].at < next {
			next = actions[ai].at
		}
		if nextSample < next {
			next = nextSample
		}
		e.fl.RunUntil(next)
		if e.tickErr != nil {
			return nil, e.tickErr
		}
	}
	if e.trace != nil {
		if err := e.trace.Flush(); err != nil {
			return nil, fmt.Errorf("scenario: trace: %w", err)
		}
	}
	return e.result(), nil
}

// buildNode assembles one machine of the run: platform, power model,
// manager, thermal governor, and the per-tick hooks — in the fixed daemon
// order (governor, observers, MP-HARS manager) the thermal subsystem
// documents.
func (e *engine) buildNode(rn resolvedNode) (*nodeRun, error) {
	model := DefaultModel(rn.plat)
	sn := sim.NewNode(rn.idx, rn.name, rn.plat, sim.Config{Power: power.DefaultGroundTruth(rn.plat)})
	nr := &nodeRun{rn: rn, m: sn.Machine, model: model}

	switch rn.manager {
	case ManagerGTS:
		nr.m.SetPlacer(gts.New(rn.plat))
	case ManagerMPHARSI, ManagerMPHARSE:
		v := mphars.MPHARSI
		if rn.manager == ManagerMPHARSE {
			v = mphars.MPHARSE
		}
		nr.mp = mphars.New(nr.m, model, mphars.Config{
			Version:     v,
			AdaptEvery:  rn.adaptEvery,
			OverheadCPU: rn.overheadCPU,
		})
	}
	// The thermal governor runs first among the daemons: PerTick observers
	// see its post-actuation state for the tick, and a ceiling moved this
	// tick is visible to MP-HARS's same-tick ReconcilePlatform and to the
	// HARS managers' next bounds clamp.
	if rn.thermalOn() {
		gov, err := thermal.NewGovernor(*rn.thermal)
		if err != nil {
			return nil, err
		}
		nr.gov = gov
		nr.m.AddDaemon(gov)
	}
	if e.opts.PerTick != nil {
		nr.m.AddDaemon(daemonFunc(e.opts.PerTick))
	}
	if nr.mp != nil {
		nr.m.AddDaemon(nr.mp)
	}
	nr.fn = &fleet.Node{Node: sn, MP: nr.mp, Gov: nr.gov}
	return nr, nil
}

func (e *engine) nodeRunByName(name string) *nodeRun {
	for _, nr := range e.nodes {
		if nr.rn.name == name {
			return nr
		}
	}
	return nil
}

// writeHeader emits the trace preamble. The single-machine format is byte-
// for-byte the historical one; multi-node runs use node-tagged line kinds
// plus a fleet rollup line.
func (e *engine) writeHeader() {
	sc := e.sc
	if !e.fleetMode {
		fmt.Fprintf(e.out, "# scenario %s seed %d manager %s\n", sc.Name, sc.Seed, sc.Manager)
		fmt.Fprintln(e.out, "# m,t_ms,online,big_level,little_level,big_cap,little_cap,energy,overhead_us")
		fmt.Fprintln(e.out, "# a,t_ms,app,beats,rate,work,migrations")
		if e.nodes[0].gov != nil {
			fmt.Fprintln(e.out, "# h,t_ms,big_temp,little_temp,big_cap,little_cap,throttles,releases")
		}
		if e.decOn {
			fmt.Fprintln(e.out, "# d,t_ms,id,kind,app,from,to,outcome,margin,candidates")
		}
		return
	}
	fmt.Fprintf(e.out, "# scenario %s seed %d manager %s nodes %d placement %s\n",
		sc.Name, sc.Seed, sc.Manager, len(e.nodes), e.sched.Policy().Name())
	fmt.Fprintln(e.out, "# n,t_ms,node,online,big_level,little_level,big_cap,little_cap,energy,overhead_us")
	fmt.Fprintln(e.out, "# a,t_ms,node,app,beats,rate,work,migrations,node_migrations")
	for _, nr := range e.nodes {
		if nr.gov != nil {
			fmt.Fprintln(e.out, "# h,t_ms,node,big_temp,little_temp,big_cap,little_cap,throttles,releases")
			break
		}
	}
	if sc.Faults != nil {
		fmt.Fprintln(e.out, "# x,t_ms,node,event,detail")
	}
	if e.decOn {
		fmt.Fprintln(e.out, "# d,t_ms,id,kind,app,from,to,outcome,margin,candidates")
	}
	fmt.Fprintln(e.out, "# f,t_ms,running,queued,hps,energy,overhead_us,node_migrations")
}

// result assembles the Result after the run.
func (e *engine) result() *Result {
	res := &Result{
		Scenario:    e.sc,
		Machine:     e.nodes[0].m,
		Placement:   e.sched.Policy().Name(),
		EnergyJ:     e.fl.EnergyJ(),
		OverheadUS:  e.fl.Overhead(),
		Samples:     e.samples,
		TraceDigest: e.hash.Sum64(),
	}
	for _, nr := range e.nodes {
		res.Nodes = append(res.Nodes, NodeResult{
			Name:       nr.rn.name,
			Manager:    nr.rn.manager,
			Machine:    nr.m,
			EnergyJ:    nr.m.EnergyJ(),
			OverheadUS: nr.m.Overhead(),
			MP:         nr.mp,
			Thermal:    nr.gov,
		})
	}
	if !e.fleetMode {
		res.MP = e.nodes[0].mp
		res.Thermal = e.nodes[0].gov
	}
	stats := e.sched.Stats()
	res.QueuedArrivals = stats.Queued
	res.NodeMigrations = stats.Migrations
	res.NodeCrashes = e.crashes
	res.TransferFails = stats.TransferFails
	res.Decisions = stats.Decisions
	if e.decLog != nil {
		res.DecisionRecords = e.decLog.Records()
		res.DecisionsDropped = e.decLog.Dropped()
	}
	for _, a := range e.apps {
		a.res.Beats = a.beats()
		a.res.Work = a.work()
		a.res.Migrations = a.threadMigrations()
		a.res.Queued = a.fapp.EverQueued()
		a.res.NodeMigrations = a.fapp.Migrations()
		a.res.MigrationDelayUS = a.delayUS
		a.res.SLOSamples = a.sloSamples
		a.res.SLOMisses = a.sloMisses
		// Skipped = the app never ran at all: no live incarnation at the
		// end, no departure, and no run state frozen by a move (an app
		// checkpointed mid-migration and never re-admitted is not
		// "skipped" — it ran; its Queued flag records the stall).
		if a.res.Arrived && a.proc == nil && !a.res.Departed {
			if a.ckpt == nil {
				a.res.Skipped = true
				res.DroppedArrivals++
			} else {
				a.res.Stranded = true
				res.StrandedApps++
			}
		}
		res.MigrationDelayUS += a.delayUS
		res.SLOSamples += a.sloSamples
		res.SLOMisses += a.sloMisses
		res.Recoveries += a.res.Recoveries
		res.LostWorkUS += a.res.LostWorkUS
		res.Apps = append(res.Apps, a.res)
	}
	for _, a := range e.apps {
		if a.mgr != nil {
			if res.Managers == nil {
				res.Managers = make(map[string]*core.Manager)
			}
			res.Managers[a.res.Name] = a.mgr
		}
	}
	return res
}

// buildActions folds arrivals, departures, and events into one ordered
// timeline.
func (e *engine) buildActions() []action {
	var out []action
	seq := 0
	for _, a := range e.apps {
		out = append(out, action{
			at: sim.Time(a.spec.StartMS) * sim.Millisecond, prio: prioArrive, seq: seq, app: a,
		})
		seq++
		if a.spec.StopMS > 0 {
			out = append(out, action{
				at: sim.Time(a.spec.StopMS) * sim.Millisecond, prio: prioDepart, seq: seq, app: a,
			})
			seq++
		}
	}
	for i := range e.sc.Events {
		ev := &e.sc.Events[i]
		prio := prioAppEvent
		if ev.Kind == KindHotplug || ev.Kind == KindDVFSCap {
			prio = prioPlatform
		}
		// A repeating event expands into one action per occurrence; they
		// all share the event's sequence number, so same-time ties between
		// different events still break by position in the file.
		for _, at := range ev.Occurrences(e.sc.DurationMS) {
			out = append(out, action{
				at: sim.Time(at) * sim.Millisecond, prio: prio, seq: seq, ev: ev,
			})
		}
		seq++
	}
	if e.sc.Faults != nil {
		seq = e.buildFaultActions(&out, seq)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].at != out[j].at {
			return out[i].at < out[j].at
		}
		if out[i].prio != out[j].prio {
			return out[i].prio < out[j].prio
		}
		return out[i].seq < out[j].seq
	})
	return out
}

// buildFaultActions expands the faults block into the action timeline:
// scripted crashes (each with its recovery, unless down_ms is 0 = forever),
// scripted permanent core failures, then the seeded-random crash process.
// Fault actions run at platform priority, like hotplug.
func (e *engine) buildFaultActions(out *[]action, seq int) int {
	fs := e.sc.Faults
	addCrash := func(node int, atMS, downMS int64) {
		until := sim.Time(math.MaxInt64)
		if downMS > 0 {
			until = sim.Time(atMS+downMS) * sim.Millisecond
		}
		fa := &faultAction{kind: faultCrash, node: node, until: until}
		*out = append(*out, action{
			at: sim.Time(atMS) * sim.Millisecond, prio: prioPlatform, seq: seq, fa: fa,
		})
		if downMS > 0 && atMS+downMS <= e.sc.DurationMS {
			*out = append(*out, action{
				at: until, prio: prioPlatform, seq: seq,
				fa: &faultAction{kind: faultHeal, node: node},
			})
		}
		seq++
	}
	for _, c := range fs.Crashes {
		addCrash(e.nodeRunByName(c.Node).rn.idx, c.AtMS, c.DownMS)
	}
	for _, cf := range fs.CoreFailures {
		*out = append(*out, action{
			at: sim.Time(cf.AtMS) * sim.Millisecond, prio: prioPlatform, seq: seq,
			fa: &faultAction{kind: faultCoreFail, node: e.nodeRunByName(cf.Node).rn.idx, cpu: cf.CPU},
		})
		seq++
	}
	for _, c := range fs.Random.ExpandRandom(fs.Seed, e.sc.DurationMS, len(e.nodes)) {
		addCrash(c.Node, c.AtMS, c.DownMS)
	}
	return seq
}

// apply executes one due action.
func (e *engine) apply(act action) {
	switch {
	case act.fa != nil:
		e.applyFault(act.fa)
	case act.app != nil && act.prio == prioArrive:
		act.app.res.Arrived = true
		e.sched.Arrive(act.app.fapp)
	case act.app != nil && act.prio == prioDepart:
		e.depart(act.app)
	default:
		e.event(act.ev)
	}
}

// Admit implements fleet.Host: place the application on the chosen node
// and attach its runtime management. A first admission spawns the program;
// an admission of a checkpointed app (the destination side of a
// work-conserving migration, or a queue drain after a failed move)
// restores the held run state instead. Called by the scheduler at arrival,
// at queue drain, and during the migrate pass.
func (e *engine) Admit(n *fleet.Node, app *fleet.App) fleet.AdmitResult {
	a := app.Payload.(*appRun)
	nr := e.nodes[n.ID]
	if nr.m.Failed() {
		// A crashed-but-undetected node can still be picked (its heartbeat
		// silence hasn't crossed the detector timeout yet); the admission
		// itself bounces.
		return fleet.AdmitNoCapacity
	}
	// An MP-HARS node needs a free core somewhere (the scheduler's CanAdmit
	// checked it; capacity cannot change in between, but stay defensive).
	initB, initL, ok := mpInitCores(nr, a)
	if !ok {
		return fleet.AdmitNoCapacity
	}
	if a.ckpt != nil {
		return e.admitRestored(nr, app, a, initB, initL)
	}
	b, _ := workload.ByShort(a.spec.Bench)
	threads := threadsOf(a)
	window := a.spec.HBWindow
	if window <= 0 {
		window = 10
	}
	a.prog = b.New(threads)
	a.applyPhaseScale()
	a.proc = nr.m.Spawn(a.spec.Name, a.prog, window)
	e.incarnate(nr, app, a, initB, initL, nr.m.Now())
	return fleet.AdmitOK
}

// mpInitCores clips the app's initial MP-HARS partition (InitBig and
// InitLittle, one core each by default) to the node's free cores. When
// both clip to zero the app gets one core of whichever cluster has room,
// little first. ok is false when the node has no free core at all. Nodes
// without MP-HARS have no partition: zero cores, always ok.
func mpInitCores(nr *nodeRun, a *appRun) (b, l int, ok bool) {
	if nr.mp == nil {
		return 0, 0, true
	}
	freeB, freeL := nr.mp.FreeCores(hmp.Big), nr.mp.FreeCores(hmp.Little)
	if freeB+freeL == 0 {
		return 0, 0, false
	}
	b = minInt(intOr(a.spec.InitBig, 1), freeB)
	l = minInt(intOr(a.spec.InitLittle, 1), freeL)
	if b+l == 0 {
		if freeL > 0 {
			l = 1
		} else {
			b = 1
		}
	}
	return b, l, true
}

// incarnate places the app's fresh incarnation (a.proc, just spawned or
// restored) on the node under its current target: MP-HARS registers it
// with its initial partition, any other node attaches its runtime
// management, and the app records its placement and incarnation start
// (the crash-loss baseline).
func (e *engine) incarnate(nr *nodeRun, app *fleet.App, a *appRun, initB, initL int, at sim.Time) {
	tgtSpec, tgtFrac := a.targetSpec()
	tgt := e.target(tgtSpec, tgtFrac, a.spec.Bench, threadsOf(a), nr)
	if nr.mp != nil {
		// No applyAffinity here: validation rejects affinity masks on
		// managed candidate nodes — MP-HARS owns its apps' masks.
		nr.mp.Register(nr.m, a.proc, tgt, initB, initL)
	} else {
		e.attachManager(nr, a, tgt)
	}
	a.node = nr
	a.res.Node = nr.rn.name
	a.incarnAt = at
	app.Proc = a.proc
}

// detach removes the app's runtime management from its node ahead of a
// teardown: the MP-HARS registration (an exited incarnation has none left)
// and the HARS manager daemon. a.mgr itself stays set — a departed app
// reports its manager in the result.
func detach(nr *nodeRun, a *appRun) {
	if nr.mp != nil && !a.proc.Exited() {
		nr.mp.Unregister(nr.m, a.proc)
	}
	if a.mgr != nil {
		nr.m.RemoveDaemon(a.mgr)
	}
}

// release forgets the app's torn-down incarnation: it is no longer running,
// managed or placed anywhere.
func release(app *fleet.App, a *appRun) {
	a.proc = nil
	a.mgr = nil
	a.node = nil
	app.Proc = nil
}

// attachManager attaches a non-partitioned node's runtime management to
// the app's fresh incarnation: a HARS manager daemon on a HARS-managed
// node, otherwise the bare heartbeat target plus the app's static
// affinity mask.
func (e *engine) attachManager(nr *nodeRun, a *appRun, tgt heartbeat.Target) {
	var v core.Version
	switch nr.rn.manager {
	case ManagerHARSI:
		v = core.HARSI
	case ManagerHARSE:
		v = core.HARSE
	case ManagerHARSEI:
		v = core.HARSEI
	default:
		a.proc.HB.SetTarget(tgt)
		e.applyAffinity(a)
		return
	}
	// Start from the maximum state the *current* platform supports, so an
	// arrival after hotplug or capping begins inside bounds.
	st := hmp.MaxState(nr.rn.plat)
	bd := core.MachineBounds(nr.m)
	st.BigCores = minInt(st.BigCores, bd.MaxBigCores)
	st.LittleCores = minInt(st.LittleCores, bd.MaxLittleCores)
	st.BigLevel = minInt(st.BigLevel, bd.BigLevelCap-1)
	st.LittleLevel = minInt(st.LittleLevel, bd.LittleLevelCap-1)
	a.mgr = core.NewManager(nr.m, a.proc, nr.model, tgt, core.Config{
		Version:     v,
		AdaptEvery:  nr.rn.adaptEvery,
		OverheadCPU: nr.rn.overheadCPU,
		InitState:   &st,
	})
	nr.m.AddDaemon(a.mgr)
}

// applyPhaseScale re-applies the last scripted workload phase scale to a
// fresh incarnation's program (migrations and delayed admissions must not
// revert a phase event).
func (a *appRun) applyPhaseScale() {
	if a.curScale <= 0 {
		return
	}
	if ps, ok := a.prog.(workload.PhaseScalable); ok {
		ps.SetPhaseScale(a.curScale)
	}
}

// applyAffinity installs the app's static affinity mask on every thread
// (validation restricted the field to unmanaged nodes, where the placer is
// the only authority moving threads — it honours the mask on every
// placement and hotplug re-placement).
func (e *engine) applyAffinity(a *appRun) {
	if len(a.spec.Affinity) == 0 {
		return
	}
	mask := hmp.MaskOf(a.spec.Affinity...)
	for i := range a.proc.Threads {
		a.proc.SetAffinity(i, mask)
	}
}

// admitRestored continues a checkpointed application on the chosen node:
// the held run state (program, heartbeat history, thread progress, pending
// wakeups) resumes once the checkpoint delay — charged from the moment the
// app was frozen — has elapsed, and the node's runtime management
// re-attaches without state loss (on MP-HARS, with the initB/initL
// partition Admit sized). Under fault injection the transfer may
// fail transiently (the seeded coin), sending the app into retry backoff,
// and a crash-recovery re-placement restores via Recover so the trace
// records it as such.
func (e *engine) admitRestored(nr *nodeRun, app *fleet.App, a *appRun, initB, initL int) fleet.AdmitResult {
	resume := a.ckptAt + e.ckptCost.Delay()
	if now := nr.m.Now(); resume < now {
		resume = now
	}
	// The node can take the app; now the checkpoint image must reach it.
	// A full node bounces before the coin is drawn, so the transfer coin
	// sequence depends only on admissions that had capacity.
	if e.coin != nil && e.coin.Flip() {
		return fleet.AdmitTransferFailed
	}
	restore := nr.m.Restore
	if app.Recovering() {
		restore = nr.m.Recover
	}

	a.proc = restore(a.ckpt, resume)
	e.incarnate(nr, app, a, initB, initL, resume)
	// Track the restored program object: identical to a.prog for a
	// migration (Checkpoint moves the live object into the snapshot), but a
	// crash recovery restores a clone — scripted phase events must mutate
	// the live incarnation, and a phase change since the snapshot was taken
	// must be re-applied to it.
	a.prog = a.ckpt.Prog
	a.applyPhaseScale()
	if e.faultCfg != nil {
		// Promote the consumed checkpoint to the app's crash restore point
		// (its state right now is identical — nothing has executed since the
		// restore). Without this, a crash between re-admission and the next
		// background snapshot could roll back past the checkpointed work.
		if snap, ok := a.ckpt.Clone(); ok {
			a.lastSnap, a.lastSnapAt = snap, resume
		}
		if app.Recovering() {
			e.traceFault(nr, "recover", a.spec.Name)
		}
	}
	a.delayUS += resume - a.ckptAt
	a.ckpt = nil
	return fleet.AdmitOK
}

// Checkpoint implements fleet.Host: freeze the application's run state on
// its node for a work-conserving move — detach its runtime management,
// capture progress/heartbeat/wakeup state, and tear the local incarnation
// down. Statistics stay continuous: the next Admit resumes exactly here.
func (e *engine) Checkpoint(n *fleet.Node, app *fleet.App) {
	a := app.Payload.(*appRun)
	nr := e.nodes[n.ID]
	detach(nr, a)
	a.ckpt = nr.m.Checkpoint(a.proc)
	a.ckptAt = nr.m.Now()
	release(app, a)
}

// Snapshot implements fleet.FaultHost: take the periodic background
// checkpoint of a running application without disturbing it. The retained
// snapshot is the restore point a later crash falls back to, bounding the
// work a crash can lose by the snapshot cadence.
func (e *engine) Snapshot(n *fleet.Node, app *fleet.App) {
	a := app.Payload.(*appRun)
	nr := e.nodes[n.ID]
	if a.proc == nil || a.proc.Exited() {
		return
	}
	if snap, ok := nr.m.Snapshot(a.proc); ok {
		a.lastSnap = snap
		a.lastSnapAt = nr.m.Now()
	}
}

// Salvage implements fleet.FaultHost: the node was declared failed with the
// application placed on it. The machine-side teardown (kill, unregister)
// already happened at the crash instant; here the app's last background
// snapshot becomes its pending restore state — a clone, so the retained
// snapshot survives if the next incarnation crashes too — and the scheduler
// re-queues it. With no snapshot yet, the app restarts from scratch on its
// next admission (the loss is still bounded: a first snapshot is at most one
// cadence after placement).
func (e *engine) Salvage(n *fleet.Node, app *fleet.App) {
	a := app.Payload.(*appRun)
	a.res.Recoveries++
	a.ckpt = nil
	a.ckptAt = 0
	if a.lastSnap != nil {
		if snap, ok := a.lastSnap.Clone(); ok {
			a.ckpt = snap
		} else {
			a.ckpt = a.lastSnap
			a.lastSnap = nil
		}
		a.ckptAt = e.fl.Now()
	}
	a.prog = nil
	release(app, a)
	e.traceFault(e.nodes[n.ID], "salvage", a.spec.Name)
}

// applyFault executes one fault-timeline action.
func (e *engine) applyFault(fa *faultAction) {
	nr := e.nodes[fa.node]
	switch fa.kind {
	case faultCrash:
		e.crashNode(nr)
		if fa.until > nr.downUntil {
			nr.downUntil = fa.until
		}
	case faultHeal:
		if e.fl.Now() >= nr.downUntil {
			e.healNode(nr)
		}
	case faultCoreFail:
		// Permanent: SetCoreOnline(false) on a failed machine folds into the
		// saved mask, so the core stays dead across crash/heal cycles.
		nr.m.SetCoreOnline(fa.cpu, false)
		if nr.mp != nil && !nr.m.Failed() {
			nr.mp.ReconcilePlatform(nr.m)
		}
		e.traceFault(nr, "corefail", strconv.Itoa(fa.cpu))
	}
}

// crashNode kills a node: every resident application's lost work is charged
// (time since its restore point — its last background snapshot, or its
// incarnation start), its runtime management is detached, and the machine
// fails — all processes killed, all cores offline, but still stepping on the
// lockstep clock, silently. The fleet detector only learns of the crash after
// the heartbeat timeout; until then the apps stay nominally placed.
func (e *engine) crashNode(nr *nodeRun) {
	if nr.m.Failed() {
		return // overlapping crash window; applyFault extends downUntil
	}
	e.crashes++
	now := e.fl.Now()
	for _, a := range e.apps {
		if a.node != nr || a.proc == nil {
			continue
		}
		base := a.incarnAt
		if a.lastSnap != nil {
			base = a.lastSnapAt
		}
		if lost := now - base; lost > 0 {
			a.res.LostWorkUS += lost
		}
		detach(nr, a)
		a.mgr = nil // the manager goes down with the node
	}
	nr.m.Fail()
	if nr.mp != nil {
		nr.mp.ReconcilePlatform(nr.m)
	}
	e.traceFault(nr, "down", "")
}

// healNode brings a crashed node back: the pre-crash online mask (minus any
// cores that failed permanently in between) is restored and the machine
// accepts work again. The detector marks it placeable on its next beat.
func (e *engine) healNode(nr *nodeRun) {
	if !nr.m.Failed() {
		return
	}
	nr.m.Heal()
	if nr.mp != nil {
		nr.mp.ReconcilePlatform(nr.m)
	}
	e.traceFault(nr, "up", "")
}

// traceFault emits one "x" fault-timeline trace line. Gated on the faults
// block, so fault-free traces stay byte-identical to pre-fault ones.
func (e *engine) traceFault(nr *nodeRun, what, detail string) {
	if e.faultCfg == nil {
		return
	}
	fmt.Fprintf(e.out, "x,%d,%s,%s,%s\n", e.fl.Now()/sim.Millisecond, nr.rn.name, what, detail)
}

// traceDecision emits one "d" decision trace line, written at decision time
// from the scheduler's hook — so the stream interleaves with samples
// identically under the lockstep and event cores. Only installed when
// decision tracing is on, so untraced runs stay byte-identical. Floats
// render with %x for exactness; empty from/to render as "-" so the column
// count is fixed.
func (e *engine) traceDecision(r decision.Record) {
	fmt.Fprintf(e.out, "d,%d,%d,%s,%s,%s,%s,%s,%x,%s\n",
		r.T/sim.Millisecond, r.ID, r.Kind, r.App,
		orDash(r.From), orDash(r.Chosen), r.Outcome, r.Margin,
		decision.FormatCandidates(r.Candidates))
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func (e *engine) depart(a *appRun) {
	if a.res.Departed {
		return
	}
	if a.fapp.Queued() {
		// Departure of a still-queued arrival cancels it. A never-admitted
		// arrival stays "skipped" (dropped); one holding a checkpoint ran
		// before being parked, so it departs with its frozen statistics.
		e.sched.Depart(a.fapp)
		if a.ckpt != nil {
			a.res.Departed = true
		}
		return
	}
	if a.proc == nil {
		return
	}
	a.res.Departed = true
	a.res.Node = a.node.rn.name
	detach(a.node, a)
	a.node.m.Kill(a.proc)
	e.sched.Depart(a.fapp)
}

func (e *engine) event(ev *Event) {
	switch ev.Kind {
	case KindHotplug, KindDVFSCap:
		nr := e.nodes[0]
		if ev.Node != "" {
			nr = e.nodeRunByName(ev.Node)
		}
		if ev.Kind == KindHotplug {
			nr.m.SetCoreOnline(ev.CPU, *ev.Online)
		} else {
			k, _ := parseCluster(ev.Cluster)
			nr.m.SetLevelCap(k, ev.MaxLevel)
		}
		if nr.mp != nil {
			nr.mp.ReconcilePlatform(nr.m)
		}
	case KindTarget:
		a := e.appByName(ev.App)
		if a == nil || a.res.Departed || !a.res.Arrived {
			// Events before the arrival are dropped, as they always were;
			// recording starts once the arrival has fired.
			return
		}
		// Record the change even while the app waits in the admission
		// queue: the eventual (or any re-) admission applies it.
		a.curTarget, a.curFrac = ev.Target, ev.Frac
		if a.proc == nil {
			return
		}
		tgt := e.target(ev.Target, ev.Frac, a.spec.Bench, threadsOf(a), a.node)
		switch {
		case a.mgr != nil:
			a.mgr.SetTarget(tgt)
		case a.node.mp != nil:
			a.node.mp.SetTarget(a.proc, tgt)
		default:
			a.proc.HB.SetTarget(tgt)
		}
	case KindPhase:
		a := e.appByName(ev.App)
		if a == nil || a.res.Departed || !a.res.Arrived {
			return
		}
		a.curScale = ev.Scale
		if a.prog == nil {
			return
		}
		if ps, ok := a.prog.(workload.PhaseScalable); ok {
			ps.SetPhaseScale(ev.Scale)
		}
	}
}

func (e *engine) appByName(name string) *appRun {
	for _, a := range e.apps {
		if a.spec.Name == name {
			return a
		}
	}
	return nil
}

func threadsOf(a *appRun) int {
	if a.spec.Threads > 0 {
		return a.spec.Threads
	}
	return 8
}

// target resolves a target spec: explicit band, or frac of the benchmark's
// maximum rate (on the node the app runs on) with the paper's ±5% band.
func (e *engine) target(explicit *TargetSpec, frac float64, bench string, threads int, nr *nodeRun) heartbeat.Target {
	if explicit != nil {
		return heartbeat.Target{Min: explicit.Min, Avg: explicit.Avg, Max: explicit.Max}
	}
	if frac <= 0 {
		frac = 0.5
	}
	return heartbeat.TargetAround(e.maxRate(bench, threads, nr), frac, 0.05)
}

// maxRate is a benchmark's maximum achievable heartbeat rate on one node's
// board: the Options.MaxRate override, or the board's GTS calibration.
func (e *engine) maxRate(bench string, threads int, nr *nodeRun) float64 {
	if e.opts.MaxRate != nil {
		return e.opts.MaxRate(bench, threads)
	}
	return gts.Calibration{Plat: nr.rn.platKey, Bench: bench, Threads: threads,
		Window: 10, Run: 20 * sim.Second, Skip: 8 * sim.Second}.MaxRate()
}

// scoreSLO scores each SLO'd application at every trace sample: a miss is
// a delivered heartbeat rate below the SLO target. Delivered rate is the
// monitor's window rate, forced to zero while the app is waiting in the
// admission queue or frozen mid-migration (no incarnation), and when the
// latest beat is more than two target periods stale — so a stalled or
// long-frozen app cannot coast on its old window rate. Ramp-up samples
// before the first beat count as misses: the user's SLO does not pause
// while the app warms up. Pure accounting — nothing is written to the
// trace, so SLO-less runs stay byte-identical to pre-SLO ones.
func (e *engine) scoreSLO() {
	now := e.fl.Now()
	for _, a := range e.apps {
		slo := a.spec.SLO
		if slo == nil || !a.res.Arrived || a.res.Departed {
			continue
		}
		rate := 0.0
		if a.proc != nil {
			if rec, ok := a.proc.HB.Latest(); ok {
				rate = rec.WindowRate
				if sim.Seconds(now-rec.Time)*slo.TargetHPS > 2 {
					rate = 0
				}
			}
		}
		a.sloSamples++
		if rate < slo.TargetHPS {
			a.sloMisses++
		}
	}
}

// sample emits one trace sample. Floats are rendered with %x so the trace
// is exact and byte-stable. The single-machine format is the historical
// one; multi-node runs emit one "n" (and "h") line per node, node-tagged
// "a" lines, and an "f" fleet rollup line.
func (e *engine) sample() {
	e.samples++
	e.scoreSLO()
	tms := e.fl.Now() / sim.Millisecond
	if !e.fleetMode {
		nr := e.nodes[0]
		fmt.Fprintf(e.out, "m,%d,%x,%d,%d,%d,%d,%x,%d\n",
			tms, uint64(nr.m.OnlineMask()),
			nr.m.Level(hmp.Big), nr.m.Level(hmp.Little),
			nr.m.LevelCap(hmp.Big), nr.m.LevelCap(hmp.Little),
			nr.m.EnergyJ(), nr.m.Overhead())
		if nr.gov != nil {
			fmt.Fprintf(e.out, "h,%d,%x,%x,%d,%d,%d,%d\n",
				tms, nr.gov.TempC(hmp.Big), nr.gov.TempC(hmp.Little),
				nr.m.LevelCap(hmp.Big), nr.m.LevelCap(hmp.Little),
				nr.gov.Throttles(), nr.gov.Releases())
		}
		for _, a := range e.apps {
			if a.proc == nil {
				continue
			}
			rate := 0.0
			if rec, ok := a.proc.HB.Latest(); ok {
				rate = rec.WindowRate
			}
			mig := 0
			for _, t := range a.proc.Threads {
				mig += t.Migrations()
			}
			fmt.Fprintf(e.out, "a,%d,%s,%d,%x,%x,%d\n",
				tms, a.spec.Name, a.proc.HB.Count(), rate, a.proc.WorkDone(), mig)
		}
		return
	}

	for _, nr := range e.nodes {
		fmt.Fprintf(e.out, "n,%d,%s,%x,%d,%d,%d,%d,%x,%d\n",
			tms, nr.rn.name, uint64(nr.m.OnlineMask()),
			nr.m.Level(hmp.Big), nr.m.Level(hmp.Little),
			nr.m.LevelCap(hmp.Big), nr.m.LevelCap(hmp.Little),
			nr.m.EnergyJ(), nr.m.Overhead())
		if nr.gov != nil {
			fmt.Fprintf(e.out, "h,%d,%s,%x,%x,%d,%d,%d,%d\n",
				tms, nr.rn.name, nr.gov.TempC(hmp.Big), nr.gov.TempC(hmp.Little),
				nr.m.LevelCap(hmp.Big), nr.m.LevelCap(hmp.Little),
				nr.gov.Throttles(), nr.gov.Releases())
		}
	}
	running := 0
	for _, a := range e.apps {
		if a.proc == nil {
			continue
		}
		if !a.proc.Exited() {
			running++
		}
		rate := 0.0
		if rec, ok := a.proc.HB.Latest(); ok {
			rate = rec.WindowRate
		}
		fmt.Fprintf(e.out, "a,%d,%s,%s,%d,%x,%x,%d,%d\n",
			tms, a.node.rn.name, a.spec.Name, a.beats(),
			rate, a.work(), a.threadMigrations(), a.fapp.Migrations())
	}
	stats := e.sched.Stats()
	fmt.Fprintf(e.out, "f,%d,%d,%d,%x,%x,%d,%d\n",
		tms, running, stats.QueueLen, e.fl.HPS(), e.fl.EnergyJ(), e.fl.Overhead(), stats.Migrations)
}

// checkStrict verifies the run-time invariants Strict mode promises, on
// every node, plus the fleet scheduler's conservation invariants.
func (e *engine) checkStrict() error {
	for _, nr := range e.nodes {
		for _, t := range nr.m.Threads() {
			if t.Runnable() && t.Core() >= 0 && !nr.m.CoreOnline(t.Core()) {
				return fmt.Errorf("scenario: t=%d: node %q: runnable thread %s/%d on offline cpu %d",
					e.fl.Now(), nr.rn.name, t.Proc.Name, t.Local, t.Core())
			}
		}
		for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
			if nr.m.Level(k) > nr.m.LevelCap(k) {
				return fmt.Errorf("scenario: t=%d: node %q: cluster %s at level %d above ceiling %d",
					e.fl.Now(), nr.rn.name, k, nr.m.Level(k), nr.m.LevelCap(k))
			}
		}
		if nr.mp != nil {
			if err := nr.mp.CheckInvariants(); err != nil {
				return fmt.Errorf("scenario: t=%d: node %q: %w", e.fl.Now(), nr.rn.name, err)
			}
		}
	}
	if err := e.sched.CheckInvariants(); err != nil {
		return fmt.Errorf("scenario: t=%d: %w", e.fl.Now(), err)
	}
	return nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
