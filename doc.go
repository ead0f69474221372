// Package repro is a from-scratch Go reproduction of "HARS: a
// Heterogeneity-Aware Runtime System for Self-Adaptive Multithreaded
// Applications" (Jaeyoung Yun, UNIST / DAC 2015).
//
// The library implements the full system stack the paper describes: a
// simulated ODROID-XU3-class big.LITTLE platform with per-cluster DVFS and
// power sensing (internal/hmp, internal/sim, internal/power), the Linux HMP
// Global Task Scheduler model (internal/gts), the Application Heartbeats
// framework (internal/heartbeat), PARSEC-like multithreaded workload models
// (internal/workload), the HARS runtime — performance estimator, power
// estimator, runtime manager, chunk-based and interleaving schedulers
// (internal/core) — the MP-HARS multi-application extension with resource
// partitioning and interference-aware adaptation (internal/mphars), the
// static-optimal and CONS-I baselines (internal/oracle, internal/mphars),
// and drivers regenerating every table and figure of the paper's evaluation
// (internal/experiments).
//
// # Dynamic-event scenarios
//
// The paper evaluates static runs only; internal/scenario goes beyond it
// with a declarative, deterministic timed-event engine that drives the
// machine and its managers through dynamic conditions: application arrival
// and departure at arbitrary ticks, heartbeat-target changes, workload
// phase changes, core hotplug (offline cores evict and re-place threads),
// and per-cluster DVFS ceilings (thermal capping). Scenarios are JSON
// scripts (format reference in the scenario package comment) replayed by
// cmd/hars-scenario into byte-identical per-sample traces; events may repeat
// on an every_ms period for pulsed load. A seeded random-scenario generator
// feeds the property tests that assert runtime invariants — no thread on an
// offline core, levels within ceilings, monotone energy, consistent manager
// state after every departure — across HARS and MP-HARS, and scenario
// sweeps run on the parallel experiments engine ("scenarios" driver).
// Event-free scenarios reproduce the golden digests of the static path
// bit-for-bit (scenario_equivalence_test.go).
//
// # Closed thermal loop
//
// internal/thermal derives DVFS ceilings from simulated heat instead of
// scripts: a per-cluster lumped RC temperature model (ambient sink,
// optional inter-cluster coupling) integrates the machine's per-tick
// cluster power — with hotplugged-off cores excluded from leakage via
// sim.OnlinePowerModel — and a hysteretic Governor daemon lowers
// sim.Machine.SetLevelCap as a cluster approaches its trip point and
// releases the ceilings as it cools, emitting EvTemp/EvThrottle trace
// events. Scenarios opt in with a "thermal" block; the "thermal"
// experiments driver sweeps governor aggressiveness across managers. The
// loop is deterministic (byte-identical replays) and, when disabled,
// bit-for-bit invisible: property tests pin the trip-point ceiling, the
// cap/temperature monotonicity, and the disabled-path golden digests.
//
// # Fleet layer (multi-machine scheduling)
//
// internal/fleet scales the system from one machine to many, in the
// hierarchical style of MARS: per-node HARS / MP-HARS managers keep
// running unmodified while a fleet scheduler decides which node an
// application lands on. internal/sim contributes the Node identity — a
// named machine bundling its platform, power model, thermal governor, and
// manager daemons, with node-tagged trace events — and fleet.Fleet
// advances any number of Nodes on one deterministic clock. Advancement is
// event-driven: a node that provably has nothing to do
// (sim.Machine.SteadyUntil certifies an idle window, in which every
// per-tick phase is a no-op) jumps its clock to its next event instead of
// stepping, and the fleet advances to the earliest wake time its scheduler
// hooks report (fleet.Sleeper), bringing its nodes there one after another
// in index order. The fast path is an execution
// strategy, not a semantic change — traces and digests are bit-for-bit
// identical to per-tick lockstep, which remains available as a reference
// (fleet.Fleet.SetLockstep, hars-scenario -lockstep). Placement is
// pluggable (least-loaded, big-first for heterogeneity, coolest for
// heat-aware placement, slo-aware for per-app target-slack scoring against
// predicted node capacity and migration cost — policies take their
// checkpoint-cost model explicitly via fleet.PolicyByName, and every
// policy scores a down node -Inf so it can never win placement); arrivals
// with no free partition
// anywhere queue FIFO — admitted strictly in arrival order as capacity
// frees (the same queue upgrades classic MP-HARS scenarios from silently
// skipping saturated arrivals); saturated nodes shed an application to
// the policy's preferred free node on a fixed cadence; and
// HPS/energy/overhead roll up per fleet.
//
// Migration is work-conserving: an application's lifecycle state is a
// first-class checkpointable identity (sim.ProcSnapshot — program state,
// per-thread progress, heartbeat history, pending wakeups) that
// Machine.Checkpoint captures and Machine.Restore continues on another
// node, statistics continuous across the move (EvMigrateOut/EvMigrateIn
// trace events). A configurable checkpoint-cost model (freeze time plus
// per-MB transfer delay, charged on the shared clock) prices each move;
// managers re-attach to moved applications without state loss. A strict
// placement cooldown makes consecutive-pass ping-pong impossible.
//
// Scenarios opt in by declaring "nodes" — each with its own inline hmp
// platform JSON, manager, and thermal block — plus a "placement" policy
// and optional "checkpoint" cost, per-app "slo" targets, and "arrivals"
// traffic traces (seeded per-node Poisson streams with piecewise rate
// profiles, expanded deterministically); events then address nodes, apps
// may pin to one, and cmd/hars-scenario replays the whole fleet
// byte-identically (-summary json emits machine-readable, byte-stable
// summaries). A quick start:
//
//	hars-scenario -gen -nodes 3 -placement coolest -strict
//
// Single-node and migration-free fleet runs are bit-for-bit unchanged:
// the Node wrapper and the checkpoint path add no behaviour until an app
// actually moves, pinned by fleet_equivalence_test.go against the
// original golden digests. The "fleet" experiments driver sweeps
// placement policies × node counts, and the "slo" driver sweeps policies
// × migration-cost regimes reporting SLO-miss rates, both on the parallel
// engine.
//
// # Failure model (fault injection & recovery)
//
// internal/fault adds a seeded, deterministic failure model on top of the
// fleet: scenarios declare a "faults" block of scripted node crashes,
// permanent core failures, a seeded-random (Poisson) crash process, and a
// transient checkpoint-transfer failure probability, all expanded on the
// shared clock as a pure function of the spec's seed. A crash kills the
// node's processes without a clean exit (sim.Machine.Fail/Heal: cores dark,
// power frozen, clock still in lockstep; EvNodeDown/EvNodeUp trace events);
// the fleet scheduler detects it by heartbeat timeout, salvages the dead
// node's applications from their last periodic background snapshot
// (non-destructive sim.Machine.Snapshot every checkpoint_every_ms — work
// lost per crash is bounded by the snapshot interval), and re-places them
// on surviving nodes through the ordinary admission queue, degrading
// gracefully to queueing when no capacity survives. Failed transfers retry
// under capped exponential backoff with seeded jitter. Recoveries are
// marked by EvRecover/"x" trace lines and counted per app
// (Recoveries/LostWorkUS); the slo-aware policy scores recovery placements
// like any other move. Everything replays byte-identically, scenarios
// without a "faults" block are bit-for-bit the pre-fault runs (golden
// digests pin both), and the "faults" experiments driver sweeps policies ×
// crash rates × snapshot intervals.
//
// # Decision observability & counterfactual replay
//
// internal/decision makes every fleet scheduling decision a first-class,
// inspectable record: each admission, recovery re-placement, migration
// pick, and declined (gated) migration gets a monotonic decision ID, its
// full candidate set — every node's score, with -Inf and a reason
// (source/pinned/down/full/min-free) for excluded nodes — the chosen
// node, the outcome, and the score margin over the runner-up. A rollup
// (decision counts by kind, mean margin, admission queue-wait histogram)
// is always on at plain-counter cost and surfaces in fleet.Stats,
// scenario.Result, and both hars-scenario summary formats; the full
// per-decision stream is opt-in ("decisions" scenario block,
// -trace-decisions) and renders as "d," trace lines — scores in hex
// floats so the stream is byte-stable, and byte-identical whether the
// fleet runs lockstep or event-driven. With tracing
// disabled every golden digest reproduces bit-for-bit.
//
// Because runs are deterministic, a recorded decision can be replayed
// against its road not taken: hars-scenario -counterfactual <id>
// (scenario.RunCounterfactual) re-runs the scenario forcing each of the
// top-k alternative candidates in place of the original choice and
// reports per-alternative regret — ΔSLO misses, Δenergy, Δmigrations
// versus the baseline. The "decisions" experiments driver sweeps
// placement policies over a contended fleet and ranks them by the
// realized regret of their own decisions.
//
// See README.md for a guided tour, DESIGN.md for the system inventory and
// substitution rationale, and EXPERIMENTS.md for the paper-versus-measured
// record. The benchmarks in bench_test.go regenerate each experiment:
//
//	go test -bench=Fig51 -benchmem
//
// # Performance & benchmarking
//
// The runtime manager's whole value proposition is being cheap enough to
// invoke every adaptation period, so the simulator and search hot paths are
// engineered and continuously measured:
//
//   - internal/sim maintains per-core run queues incrementally on
//     block/unblock/migrate transitions instead of rescanning every thread
//     every tick; RunQueueLen is O(1), per-thread speed factors and the
//     cache-sharing bonus are resolved once at Spawn, and per-tick energy
//     integration is memoized while a cluster's level and busy times are
//     unchanged. All of it is tick-for-tick bit-identical to the historical
//     full-scan implementation — equivalence_test.go pins golden digests
//     (energy, heartbeats, work, migrations, busy time) captured from the
//     pre-refactor simulator.
//   - internal/core memoizes the performance estimator in a dense table
//     over the 4-D system-state space, shared by Search, the tabu search,
//     and MP-HARS's per-application sweeps; a warm exhaustive
//     GetNextSysState sweep performs zero allocations
//     (TestSearchZeroAllocs).
//   - internal/experiments runs independent figure rows and whole
//     experiments through worker pools (hars-experiments -parallel N);
//     reports are identical whatever the pool width.
//   - internal/fleet advances quiescent nodes by event jump instead of
//     per-tick stepping (see the fleet layer above), so a mostly-idle
//     fleet costs wall-clock proportional to its busy nodes and decision
//     points, not nodes × ticks; BenchmarkFleetQuiescent tracks the
//     speedup over the lockstep reference on a 128-node fleet, and the
//     BenchmarkFleetScale1k family tracks it at 1024 nodes (idle, ~5%
//     active, and fault-armed crash/heal variants).
//   - The fleet core itself is engineered for thousand-node fleets: the
//     number of barriers tracks activity, not ticks, and each barrier's
//     scheduler work is a few O(nodes) passes (partition reconcile, the
//     failure detector, NextWake's deadline and heal scan); and between
//     barriers, bit-identical idle nodes share one energy-replay
//     computation per idle window through a bit-exact-keyed cache
//     (sim.JumpCache), collapsing the cost of N idle machines to ~1. The
//     steady-state barrier loop performs no allocations, pinned by the
//     hars-bench -alloc-ceiling guard in CI.
//   - Busy machines get the same treatment as idle ones, through the same
//     certification and executor: when a machine's runnable set,
//     placement, per-thread speeds, and platform state provably cannot
//     change — threads mid-unit, managers in-band, the governor between
//     actuations — sim.Machine.SteadyUntil certifies the window and
//     RunSteady executes it as a tight loop, accruing per-tick progress
//     and the memoized energy additions in registers with the same IEEE
//     operations in the same order as the general path, skipping the
//     runnable scan, placer dispatch, daemon walk, and trace checks; an
//     idle window is the case with nothing runnable. Daemons opt in via
//     sim.SteadyDaemon (core.Manager, mphars.Manager, and thermal.Governor
//     do, and a declared Wake bounds the window; any other daemon vetoes
//     it), placers via sim.SteadyPlacer. Unit completions, heartbeats, timer
//     wakeups, and governor actuations always run through the general
//     per-tick loop, which survives as the bit-exactness reference
//     (sim.Machine.SetSteady, scenario Options.NoSteady, hars-scenario
//     -steady=false) pinned by the golden digests, the steady boundary
//     tests, and the steady-vs-general property suite. The
//     BenchmarkFleetScale1kSteady pair tracks the speedup over the general
//     loop on a managed busy fleet, guarded by hars-bench
//     -steady-ratio-floor in CI.
//
// The tracked hot-path benchmarks live in internal/bench and run two ways:
//
//	go test -run '^$' -bench 'SimSecond|SearchExhaustive' -benchmem .
//	go run ./cmd/hars-bench -out BENCH_N.json -prev BENCH_M.json
//
// cmd/hars-bench writes the measurements as BENCH_<n>.json at the
// repository root (one file per PR, n = PR number) so the performance
// trajectory is reviewable alongside the code: -prev prints per-benchmark
// deltas against an earlier file, -count N records the median of N runs
// with the min/max spread printed, -cpuprofile/-memprofile capture pprof
// profiles of the run (hars-scenario takes the same two flags), and CI
// enforces the -quiescent-ratio-floor, -scale-ratio-floor,
// -steady-ratio-floor, and -alloc-ceiling guards so the event core's and
// steady path's speedups and the alloc-free steady state cannot silently
// regress. Treat a regression in SimSecond or SearchExhaustive as a bug.
package repro
