// Package scenario is a declarative, deterministic timed-event engine for
// dynamic-condition simulations: it drives a sim.Machine and its HARS /
// MP-HARS runtime managers through scripted runs in which applications
// arrive and depart at arbitrary ticks, performance targets and workload
// phases shift, cores go offline and come back (hotplug), and cluster
// frequencies get capped — either by scripted dvfs_cap events or by the
// closed thermal loop of package thermal (an RC temperature model plus a
// governor daemon deriving the ceilings from simulated heat).
//
// The paper evaluates HARS only on static runs — a fixed application set
// started at t = 0 on a fixed machine. This package is how the repository
// tests everything the paper does not: the managers' reaction paths when
// the world changes mid-run.
//
// # Scenario format
//
// A scenario is a JSON document (see Decode/Encode):
//
//	{
//	  "name": "example",
//	  "seed": 7,
//	  "manager": "mphars-i",
//	  "duration_ms": 20000,
//	  "sample_every_ms": 100,
//	  "adapt_every": 10,
//	  "apps": [
//	    {"name": "sw0", "bench": "SW", "threads": 8, "start_ms": 0,
//	     "stop_ms": 15000, "target_frac": 0.5, "init_big": 2, "init_little": 2},
//	    {"name": "fe0", "bench": "FE", "threads": 4, "start_ms": 5000,
//	     "target": {"min": 4.5, "avg": 5.0, "max": 5.5}}
//	  ],
//	  "events": [
//	    {"at_ms": 4000, "kind": "hotplug", "cpu": 7, "online": false},
//	    {"at_ms": 6000, "kind": "dvfs_cap", "cluster": "big", "max_level": 4},
//	    {"at_ms": 8000, "kind": "target", "app": "sw0", "frac": 0.7},
//	    {"at_ms": 9000, "kind": "phase", "app": "sw0", "scale": 1.5,
//	     "every_ms": 2000, "repeat": 3},
//	    {"at_ms": 12000, "kind": "hotplug", "cpu": 7, "online": true}
//	  ],
//	  "thermal": {"enabled": true, "trip_c": 75, "release_c": 60,
//	              "big": {"capacitance_j_per_k": 1, "resistance_k_per_w": 10}}
//	}
//
// Fields:
//
//   - manager: "none" (unmanaged, mask-balancer placement), "gts"
//     (unmanaged, Linux HMP GTS placement), "hars-i", "hars-e", "hars-ei"
//     (one single-application HARS manager per application), "mphars-i" or
//     "mphars-e" (one shared MP-HARS manager with resource partitioning).
//   - apps: start_ms/stop_ms are arrival and departure times (stop_ms 0 =
//     runs to the end). The performance target is either an explicit
//     {min, avg, max} band or target_frac, a fraction of the benchmark's
//     measured maximum rate (±5% band). init_big/init_little are the
//     MP-HARS initial core allocation (default 1+1).
//   - events: "hotplug" toggles one CPU (online is required); "dvfs_cap"
//     installs a cluster frequency ceiling (max_level indexes the OPP grid;
//     restore with the grid's top level); "target" re-targets one app
//     (frac or explicit target); "phase" scales the app's future work units
//     by scale (> 0), a workload phase change. Any event may repeat: with
//     every_ms > 0 it fires again every every_ms milliseconds until the run
//     ends or repeat firings have happened (repeat 0 = until the end); a
//     repeating event behaves exactly like its occurrences written out by
//     hand. Validation bounds the total expansion (100,000 occurrences).
//   - thermal: the closed-loop block (see thermal.Spec for every field and
//     default). With enabled=true the engine attaches an RC temperature
//     model fed by the machine's per-tick cluster power and a hysteretic
//     governor daemon that lowers SetLevelCap as a cluster approaches
//     trip_c and releases the ceilings as it cools below release_c; the
//     trace grows "h" sample lines (temperatures, caps, actuation counts)
//     and Result.Thermal carries the governor. Scripted dvfs_cap events
//     are rejected while the governor is enabled — it owns the ceilings.
//     With enabled=false (or no block) the run is bit-for-bit the
//     pre-thermal one. In a multi-node scenario the block is the
//     fleet-wide default; nodes override it with their own.
//   - affinity (per app): an explicit CPU list pinning the app's threads
//     for the whole run — enforced by the placer on every placement and
//     hotplug re-placement. Unmanaged scenarios only ("none", "gts"): the
//     HARS / MP-HARS managers own their applications' masks.
//   - slo (per app, and per arrival stream): the application's service-
//     level objective, {"target_hps": 3, "slack_ms": 150}. The slo-aware
//     placement policy scores candidate nodes against target_hps and
//     charges migration freeze time against slack_ms; the engine counts
//     an SLO miss for every trace sample at which the app delivers less
//     than target_hps (queued and migration-frozen apps deliver nothing;
//     stale window rates older than two target periods count as zero).
//     Misses are pure accounting — AppResult.SLOSamples/SLOMisses and the
//     fleet rollups — and never change the trace bytes.
//
// # Multi-node (fleet) scenarios
//
// A scenario may declare a whole fleet of machines instead of one:
//
//	{
//	  "name": "fleet",
//	  "manager": "mphars-i",
//	  "duration_ms": 20000,
//	  "placement": "slo-aware",
//	  "migrate_every_ms": 250,
//	  "checkpoint": {"freeze_us": 5000, "per_mb_us": 500, "size_mb": 8},
//	  "nodes": [
//	    {"name": "n0", "thermal": {"enabled": true}},
//	    {"name": "n1", "manager": "hars-e", "adapt_every": 2},
//	    {"name": "n2", "platform": {"Clusters": [...], "BaseKHz": 800000}}
//	  ],
//	  "apps": [
//	    {"name": "sw0", "bench": "SW", "threads": 8,
//	     "slo": {"target_hps": 3, "slack_ms": 150}},
//	    {"name": "fe0", "bench": "FE", "threads": 4, "node": "n1"}
//	  ],
//	  "arrivals": [
//	    {"name": "web", "node": "n2", "bench": "BO", "threads": 4, "seed": 9,
//	     "lifetime_ms": 3000, "slo": {"target_hps": 3},
//	     "rate": [{"until_ms": 8000, "per_s": 0.8}, {"per_s": 0.2}]}
//	  ],
//	  "events": [
//	    {"at_ms": 4000, "kind": "hotplug", "node": "n0", "cpu": 7, "online": false},
//	    {"at_ms": 6000, "kind": "dvfs_cap", "node": "n2", "cluster": "big", "max_level": 4}
//	  ]
//	}
//
// Each node is one sim.Node — its own platform description (inline
// hmp.ReadPlatform JSON; omitted = the default board), power model,
// manager ("manager"/"adapt_every"/"overhead_cpu" default to the
// scenario-level values), and thermal loop — and all nodes advance in
// lockstep on one deterministic clock (internal/fleet). Arrivals are
// admitted to a node by the placement policy ("least-loaded" default,
// "big-first" = most free big-core capacity, "coolest" = lowest modeled
// temperature, "slo-aware" = best predicted target slack: free-capacity-
// weighted nominal speed at the active frequency ceilings relative to the
// app's slo target, minus the checkpoint delay scored against its slack
// when the candidate is a migration destination) or by their "node" pin;
// platform events (hotplug, dvfs_cap) must name the node they act on,
// while app events address the app wherever it runs.
//
// Traffic traces: each "arrivals" stream is a seeded Poisson arrival
// process with a piecewise-constant rate profile ("rate" steps, each
// active until until_ms; 0 on the last step = end of run). At run time it
// expands deterministically into concrete arrivals named "<name>-<i>" —
// copies of the stream's app template, optionally pinned to the stream's
// node, departing lifetime_ms after they start, at most max_apps of them
// (default 64). The same document always expands identically (the seed
// drives everything), so replays remain byte-identical; the scenario
// document itself is never mutated.
//
// Admission control: an arrival finding no free core partition on any
// admissible node queues FIFO fleet-wide (Result.QueuedArrivals) and is
// admitted the tick a partition frees up — departure, hotplug, or an
// adaptation shrinking a neighbour; queued arrivals admit strictly in
// arrival order even when several partitions free at once; arrivals still
// waiting when the run (or their departure) ends count as dropped
// (Result.DroppedArrivals, AppResult.Skipped). The same queue serves
// classic single-machine MP-HARS scenarios, which previously skipped such
// arrivals outright.
//
// Work-conserving migration: every migrate_every_ms (250 ms default, -1
// disables) the scheduler moves one application off each saturated
// partitioned node to the policy's preferred node with free capacity —
// the destination must hold strictly more free cores than the victim's
// allocation, must not score below the victim's current node under the
// placement policy, and the victim must be past a strict cooldown (placed
// more than one period ago), so an app can never bounce between two nodes
// on consecutive passes. The move checkpoints the application's run state
// — program-internal state, per-thread progress, heartbeat history,
// pending wakeups (sim.ProcSnapshot) — and restores it on the destination
// with statistics continuous across nodes (EvMigrateOut/EvMigrateIn
// machine-trace events mark the two sides; AppResult.NodeMigrations
// counts the moves). The "checkpoint" block prices the move: the app
// stays frozen for freeze_us + per_mb_us × size_mb on the shared clock
// before resuming (AppResult.MigrationDelayUS totals the frozen time); a
// missing or all-zero block is a free move, bit-for-bit identical to no
// block at all. The node's manager re-attaches without state loss: the
// carried heartbeat history counts as already observed and the first
// adaptation waits a full period past the move.
//
// Multi-node traces replace the "m" line with per-node "n" (and "h")
// lines, add the node and fleet-move columns to "a" lines, and append an
// "f" fleet rollup line (running apps, queue length, summed HPS, energy,
// overhead, migrations) per sample. Single-node scenarios keep the classic
// byte-identical format.
//
// # Fault injection ("faults" block)
//
// A fleet scenario may add a seeded fault plan (internal/fault):
//
//		"faults": {
//		  "seed": 7,
//		  "heartbeat_timeout_ms": 300,
//		  "checkpoint_every_ms": 1000,
//		  "transfer_fail_prob": 0.1,
//		  "retry_base_ms": 50, "retry_max_ms": 2000, "retry_jitter_ms": 25,
//		  "crashes": [{"node": "n1", "at_ms": 4000, "down_ms": 3000}],
//		  "core_failures": [{"node": "n0", "at_ms": 2000, "cpu": 5}],
//		  "random": {"rate_per_min": 6, "down_ms": 2500, "max_crashes": 16}
//		}
//
//	  - crashes: scripted node crashes. A crash kills every resident process
//	    without a clean exit and powers the node off; it reboots down_ms
//	    later (0 = never). down_ms, when nonzero, must exceed the heartbeat
//	    timeout — a blip the detector cannot see would strand apps silently,
//	    so validation rejects it. Overlapping crash windows extend the
//	    outage to the latest recovery time.
//	  - core_failures: permanent core failures — the CPU goes offline at
//	    at_ms and never returns; a node reboot does not revive it.
//	    Validation applies the same last-core/affinity rules as scripted
//	    hotplug.
//	  - random: a seeded Poisson crash process over the whole fleet
//	    (exponential inter-arrival gaps at rate_per_min, uniformly drawn
//	    victim), expanded before the run as a pure function of (seed,
//	    duration, node count) — replays are byte-identical.
//	  - Recovery: the fleet scheduler declares a node down after
//	    heartbeat_timeout_ms of silence, salvages its apps from their last
//	    background snapshot (taken every checkpoint_every_ms; negative
//	    disables), and re-places them on surviving nodes through the
//	    ordinary admission queue — so work lost per crash is bounded by the
//	    snapshot interval, and recovery degrades gracefully to queueing
//	    when no capacity survives. Each restore fails transiently with
//	    probability transfer_fail_prob; failed transfers retry under capped
//	    exponential backoff (retry_base_ms doubling up to retry_max_ms,
//	    plus a seeded jitter in [0, retry_jitter_ms]).
//
// Fault activity appears in the trace as "x,t_ms,node,event,detail" lines
// (down, up, corefail, salvage, recover) and in the results as
// Result.NodeCrashes/Recoveries/LostWorkUS/TransferFails/StrandedApps and
// the per-app AppResult.Recoveries/LostWorkUS/Stranded. A scenario without
// a "faults" block is bit-for-bit the pre-fault run.
//
// # Decision tracing ("decisions" block)
//
// A scenario may opt into the scheduler's decision stream
// (internal/decision):
//
//	"decisions": {"enabled": true, "keep": 100000}
//
// Every scheduler decision point — admission picks, migrate-pass
// destination picks (including the gated no-ops the destination-score gate
// declines), and crash re-placements — then appears in the trace as a
//
//	d,t_ms,id,kind,app,from,to,outcome,margin,candidates
//
// line: the monotonic decision ID, the kind (admit/migrate/recover/gated),
// the full scored candidate set ("node:score" per eligible node,
// "node:score:reason" per excluded one — reasons pinned/down/full/min-free
// score -Inf; the migration source keeps its real score), the chosen node,
// the outcome (placed/moved/held/no-candidate/no-capacity/transfer-failed),
// and the winner's score margin over the runner-up. Scores and margins
// render as hexadecimal floats, so the lines are byte-stable and exact.
// The same records land in Result.DecisionRecords (bounded by "keep",
// default 100,000; overflow counted in Result.DecisionsDropped).
// Options.TraceDecisions arms the stream from the command line
// (hars-scenario -trace-decisions) without touching the document. With
// the block absent or disabled (and the flag off) the trace
// is bit-for-bit the undecorated run — every golden digest reproduces
// exactly — while the always-on rollup (Result.Decisions: decision counts
// by kind, gated migrations, mean score margin, admission queue-wait
// histogram) is maintained regardless.
//
// Decisions happen inside fleet hook ticks, so the decision stream is
// byte-identical across the lockstep and event-driven cores, and decision
// IDs are assigned whether or not the stream is recorded. That is what
// makes counterfactual replay exact: Options.ForceDecisions (hars-scenario
// -counterfactual <id> [-counterfactual-k N]) re-runs the scenario forcing
// one recorded
// decision to each of its top-k alternative candidates in turn
// (RunCounterfactual); everything before the forked decision is
// bit-identical by determinism, and the report carries each alternative's
// ΔSLO misses, Δenergy, and Δmigrations against the baseline — the
// realized regret of the choice the policy actually made.
//
// Advancement strategy is an Options matter, never a scenario one: the
// engine runs the event-driven fleet core with the machines' steady-phase
// turbo path on by default, and every combination replays byte-identically.
// Options.Lockstep (hars-scenario -lockstep) forces the per-tick reference
// fleet advancement; Options.NoSteady (hars-scenario -steady=false) forces
// the general per-tick loop through every busy stretch. Both switches exist
// for benchmarking and for the equivalence suites that prove the
// bit-exactness, not for changing results.
//
// Determinism: the engine is single-threaded over deterministic
// simulators — nodes step in index order within each shared tick, and
// scheduler decisions break ties by policy score then node index — so the
// same scenario file always produces byte-identical traces and results.
// Actions due at the same millisecond apply in a fixed order: platform
// events first (hotplug, dvfs_cap, in listed order), then departures, then
// arrivals, then application events (target, phase), ties broken by
// position in the file; occurrences of a repeating event carry their
// event's file position for tie-breaking.
//
// Validation rejects scenarios whose hotplug sequence would ever take a
// node's last core offline, so a validated scenario can always make
// progress.
package scenario
