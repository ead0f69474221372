package fleet

import (
	"fmt"
	"math"

	"repro/internal/decision"
	"repro/internal/fault"
	"repro/internal/hmp"
	"repro/internal/sim"
)

// AdmitResult is Host.Admit's outcome, telling the scheduler how to retry.
type AdmitResult uint8

const (
	// AdmitOK: the application is running on the node.
	AdmitOK AdmitResult = iota
	// AdmitNoCapacity: the node could not take the application right now —
	// capacity vanished between the check and the registration, or the
	// machine is dead. The app re-queues and is retried on the next drain.
	AdmitNoCapacity
	// AdmitTransferFailed: the node had capacity but the checkpoint
	// transfer failed transiently. The app re-queues and waits out a
	// capped exponential backoff before its next attempt.
	AdmitTransferFailed
)

// Host is the callback surface through which the scheduler manipulates
// applications: the embedding layer (the scenario engine, or a test
// harness) owns the programs, targets, and managers, while the scheduler
// owns the decisions — which node, when to queue, when to move.
type Host interface {
	// Admit places the application on node n, setting app.Proc on
	// AdmitOK. A first admission spawns the application; an admission
	// following Checkpoint (or a crash Salvage) restores the held run
	// state, charging the host's checkpoint-cost model. Non-OK results
	// re-queue the app (see AdmitResult).
	Admit(n *Node, app *App) AdmitResult
	// Checkpoint freezes the application's run state on node n and tears
	// the local incarnation down: unregister from the node's manager,
	// capture progress/heartbeat/wakeup state, and clear app.Proc. The
	// next Admit — usually on the migration destination in the same pass,
	// or from the queue if capacity vanished mid-move — resumes that
	// state instead of respawning.
	Checkpoint(n *Node, app *App)
}

// FaultHost extends Host with the crash-recovery surface the fault-aware
// scheduler needs. Config.Fault requires the host to implement it.
type FaultHost interface {
	Host
	// Snapshot takes a periodic background checkpoint of the application
	// running on node n, WITHOUT disturbing it: the host retains the
	// snapshot as the app's crash-recovery restore point. Work lost on a
	// crash is bounded by the snapshot cadence.
	Snapshot(n *Node, app *App)
	// Salvage reacts to node n being declared failed while the application
	// was placed on it: the host promotes the app's last background
	// snapshot (if any) to its pending restore state — exactly the state a
	// post-Checkpoint Admit consumes — and clears app.Proc. The scheduler
	// re-queues the app immediately after.
	Salvage(n *Node, app *App)
}

// appState tracks where an application is in the admission lifecycle.
type appState uint8

const (
	appQueued appState = iota
	appPlaced
	appDeparted
)

// SLO is an application's service-level objective: the heartbeat rate it
// must sustain and how much extra placement latency (queueing plus
// migration freeze) its owner tolerates. The SLO-aware placement policy
// scores candidate nodes against it; the scenario layer reports per-sample
// misses against TargetHPS.
type SLO struct {
	// TargetHPS is the heartbeat rate the application must sustain.
	TargetHPS float64
	// SlackMS is the tolerated extra delay budget in milliseconds;
	// migration freeze time is scored against it (0 = a default budget).
	SlackMS int64
}

// App is the fleet scheduler's per-application record. The Host keeps its
// own payload alongside (Payload) and maintains Proc; the scheduler
// maintains everything else.
type App struct {
	// Name identifies the application fleet-wide (unique).
	Name string
	// Pinned, when non-nil, restricts placement to one node: the app
	// queues rather than land anywhere else, and it never migrates.
	Pinned *Node
	// SLO, when non-nil, is the application's service-level objective,
	// consulted by SLO-aware placement.
	SLO *SLO
	// Proc is the application's current incarnation, set by Host.Admit and
	// cleared by Host.Checkpoint. The scheduler reads it only to size
	// migrations (partition allocation lookup).
	Proc *sim.Process
	// Payload is the host's per-application state, opaque to the scheduler.
	Payload any

	seq        int // arrival order, for deterministic tie-breaking
	state      appState
	node       *Node
	placedAt   sim.Time
	everQueued bool
	migrations int

	// Transfer-retry state (fault-aware scheduling only): after a failed
	// transfer the app stays queued until nextTryAt, with retries counting
	// consecutive failures for the exponential backoff. recovering marks an
	// app salvaged off a dead node and not yet re-placed.
	retries    int
	nextTryAt  sim.Time
	recovering bool

	// queuedAt is when the app last joined the admission path (arrival,
	// requeue after a bounced move, or crash salvage); the queue-wait
	// histogram measures successful admissions against it.
	queuedAt sim.Time
}

// Node returns the node the application currently runs on (nil while
// queued or after departure).
func (a *App) Node() *Node { return a.node }

// Queued reports whether the application is waiting for capacity.
func (a *App) Queued() bool { return a.state == appQueued }

// Placed reports whether the application is currently running on a node.
func (a *App) Placed() bool { return a.state == appPlaced }

// EverQueued reports whether the application ever had to wait for a free
// core partition before admission.
func (a *App) EverQueued() bool { return a.everQueued }

// Migrations returns how many times the scheduler moved the application
// between nodes.
func (a *App) Migrations() int { return a.migrations }

// Recovering reports whether the application was salvaged off a failed
// node and awaits re-placement: its next admission restores the last
// background snapshot, so placement policies should charge the restore
// delay (the SLO-aware policy does).
func (a *App) Recovering() bool { return a.recovering }

// Config tunes the scheduler. The zero value selects the least-loaded
// policy, a 250 ms saturation check, and a two-core migration destination
// floor.
type Config struct {
	// Policy places arrivals and picks migration destinations. Nil selects
	// least-loaded.
	Policy Policy

	// MigrateEvery is the period of the saturation check that may migrate
	// one application per saturated node. Zero selects 250 ms; negative
	// disables migration entirely. With a single node migration never
	// fires (there is nowhere to go).
	MigrateEvery sim.Time

	// MigrateMinFree is the free-core floor a destination must offer
	// before an application is moved to it (default 2): migrating onto a
	// nearly-full node would just spread the saturation.
	MigrateMinFree int

	// Fault, when non-nil, arms fault-aware scheduling: a heartbeat-timeout
	// failure detector over the fleet's nodes, periodic background
	// checkpoints at the configured cadence, crash recovery (apps salvaged
	// off detected-dead nodes and re-placed from their last snapshot), and
	// capped exponential backoff with seeded jitter for failed transfers.
	// Requires the Host to implement FaultHost.
	Fault *fault.Config

	// Observer, when non-nil, receives a decision.Record for every
	// scheduler decision point — admission picks, migrate-pass picks
	// (including moves the score gate declined), and crash re-placements —
	// with the full scored candidate set. Pure observation: attaching one
	// never changes a decision, and with none attached the candidate
	// bookkeeping is skipped entirely (the always-on Stats.Decisions
	// rollup is maintained either way).
	Observer decision.Sink

	// Force maps decision ID → fleet node index, overriding the policy's
	// choice at exactly those decision points (the counterfactual replay
	// seam). The forced node is chosen even when the policy preferred
	// another or found none, and a forced migrate-pass move skips the
	// destination-score gate; the admission itself still goes through the
	// Host and may bounce like any other. Decision IDs are assigned
	// deterministically whether or not an Observer is attached, so the
	// same ID addresses the same decision in every replay. Out-of-range
	// indices are ignored.
	Force map[uint64]int
}

func (c Config) withDefaults() Config {
	if c.Policy == nil {
		c.Policy = leastLoaded{}
	}
	if c.MigrateEvery == 0 {
		c.MigrateEvery = 250 * sim.Millisecond
	}
	if c.MigrateMinFree <= 0 {
		c.MigrateMinFree = 2
	}
	return c
}

// Stats is the scheduler's decision rollup.
type Stats struct {
	Admitted   int // successful admissions (arrivals + re-admissions after migration)
	Queued     int // arrivals that had to wait for capacity at least once
	QueueLen   int // applications still waiting right now
	Migrations int // node-to-node application moves

	// Recovered counts crash salvages: apps pulled off a node declared
	// failed. TransferFails counts transient transfer failures that put an
	// app into backoff. Both stay zero without fault-aware scheduling.
	Recovered     int
	TransferFails int

	// Decisions is the always-on decision-observability rollup: decision
	// counts by kind (admissions, gated migrations, fault re-placements),
	// score margins, and the admission queue-wait histogram. Maintained
	// whether or not decision tracing (Config.Observer) is on.
	Decisions decision.Rollup
}

// Scheduler is the fleet's admission and migration brain: a per-tick fleet
// hook that places arrivals by policy, queues them FIFO when no admissible
// node exists, admits them as capacity frees up, and moves applications
// off saturated nodes.
type Scheduler struct {
	f    *Fleet
	host Host
	cfg  Config

	apps  []*App
	queue []*App // FIFO, arrival order

	admitted    int
	queuedTotal int
	migrations  int
	nextMigrate sim.Time

	// Fault-aware scheduling state (nil/zero when Config.Fault is nil).
	fhost         FaultHost
	detector      *fault.Detector
	backoff       *fault.Backoff
	nextCkpt      sim.Time
	recovered     int
	transferFails int

	// rollup is the always-on decision-observability aggregate; its
	// Decisions counter doubles as the next decision ID, assigned whether
	// or not an Observer records the streams.
	rollup decision.Rollup
}

// NewScheduler builds a scheduler over the fleet and registers it as a
// per-tick hook. A Config with Fault set requires host to implement
// FaultHost and panics otherwise (a wiring bug, not a runtime condition).
func NewScheduler(f *Fleet, host Host, cfg Config) *Scheduler {
	s := &Scheduler{f: f, host: host, cfg: cfg.withDefaults()}
	s.nextMigrate = f.Now() + s.cfg.MigrateEvery
	if fc := s.cfg.Fault; fc != nil {
		fh, ok := host.(FaultHost)
		if !ok {
			panic("fleet: Config.Fault requires the host to implement FaultHost")
		}
		s.fhost = fh
		s.detector = fault.NewDetector(len(f.Nodes()), fc.HeartbeatTimeout, f.Now())
		s.backoff = fault.NewBackoff(*fc)
		s.nextCkpt = f.Now() + fc.CheckpointEvery
	}
	f.AddHook(s)
	return s
}

// Policy returns the scheduler's placement policy.
func (s *Scheduler) Policy() Policy { return s.cfg.Policy }

// Apps returns every application the scheduler has seen, in arrival order.
func (s *Scheduler) Apps() []*App { return s.apps }

// Stats returns the decision rollup so far.
func (s *Scheduler) Stats() Stats {
	return Stats{
		Admitted:      s.admitted,
		Queued:        s.queuedTotal,
		QueueLen:      len(s.queue),
		Migrations:    s.migrations,
		Recovered:     s.recovered,
		TransferFails: s.transferFails,
		Decisions:     s.rollup,
	}
}

// Arrive hands a new application to the scheduler: it is admitted to the
// policy's pick right away when possible, and queued FIFO otherwise. Apps
// already waiting get first claim on any capacity — the queue drains
// before the newcomer is considered, so an arrival coinciding with a
// departure cannot jump the line.
func (s *Scheduler) Arrive(app *App) {
	app.seq = len(s.apps)
	app.queuedAt = s.f.Now()
	s.apps = append(s.apps, app)
	s.reconcileAll()
	s.drain()
	if s.tryAdmit(app) {
		return
	}
	s.enqueue(app)
}

// enqueue puts an application at the back of the admission queue, off any
// node, stamped with the time it joined. It counts toward queuedTotal only
// once per lifetime: Stats.Queued counts arrivals that waited, not waits.
func (s *Scheduler) enqueue(app *App) {
	app.state = appQueued
	app.node = nil
	app.queuedAt = s.f.Now()
	if !app.everQueued {
		app.everQueued = true
		s.queuedTotal++
	}
	s.queue = append(s.queue, app)
}

// reconcileAll syncs every partitioned node's tables with its machine once
// per decision point, so the capacity checks below are pure reads.
func (s *Scheduler) reconcileAll() {
	for _, n := range s.f.Nodes() {
		n.Reconcile()
	}
}

// anyAdmittable reports whether any node has admission capacity right now
// (tables already reconciled).
func (s *Scheduler) anyAdmittable() bool {
	for _, n := range s.f.Nodes() {
		if n.CanAdmit() {
			return true
		}
	}
	return false
}

// Depart removes an application from scheduling: a queued app is cancelled
// (it never ran), a placed app is released. Machine-level teardown of a
// placed app is the caller's business — the scheduler only forgets it.
func (s *Scheduler) Depart(app *App) {
	if app.state == appQueued {
		for i, q := range s.queue {
			if q == app {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
	}
	app.state = appDeparted
	app.node = nil
}

// NextWake implements Sleeper: the earliest future clock time at which Tick
// is anything but a no-op. A non-empty admission queue wakes the scheduler
// every tick — node-local adaptation can free partition capacity at any
// tick, and transfer-retry coin draws must land on exactly the ticks the
// lockstep walk would use. Otherwise the wake time is the earliest of the
// migration cadence, the snapshot cadence, and — per silent node — the tick
// the heartbeat detector will declare it down (fault.Detector.Deadline + 1,
// exactly the first tick a lockstep Observe sequence transitions, because
// alive observations are last-write-wins and silence keeps the deadline
// fixed). A node that proved alive while still declared down wakes the
// scheduler immediately so the recovery transition lands on the next tick,
// as it would in lockstep. The per-node scan is O(nodes), the same order as
// the reconcile and detector passes every fault-aware Tick already runs.
func (s *Scheduler) NextWake(f *Fleet) sim.Time {
	now := f.Now()
	if len(s.queue) > 0 {
		return now
	}
	wake := sim.Time(math.MaxInt64)
	if s.cfg.MigrateEvery > 0 && len(f.Nodes()) > 1 {
		wake = s.nextMigrate
	}
	if s.detector != nil {
		if s.cfg.Fault.CheckpointEvery > 0 && s.nextCkpt < wake {
			wake = s.nextCkpt
		}
		for i, n := range f.Nodes() {
			failed, down := n.Failed(), s.detector.Down(i)
			switch {
			case failed && !down:
				if d := s.detector.Deadline(i) + 1; d < wake {
					wake = d
				}
			case !failed && down:
				return now
			}
		}
	}
	if wake < now {
		return now
	}
	return wake
}

// Tick implements Hook. Partition tables are reconciled once up front; the
// per-node checks below are pure reads (Register/Unregister keep the tables
// current within the pass). With fault-aware scheduling the pass first
// observes node liveness (marking nodes down after the heartbeat timeout and
// salvaging their apps into the queue) and takes the periodic background
// checkpoints; then the admission queue drains against freshly freed
// capacity — so an app recovered this tick re-places on a surviving node in
// the same tick when capacity exists, and simply stays queued when none
// does — and finally the periodic saturation/migration pass runs when due.
// Without a detector, an empty queue and no migration due, Tick is a no-op.
func (s *Scheduler) Tick(f *Fleet) {
	now := f.Now()
	due := s.cfg.MigrateEvery > 0 && len(f.Nodes()) > 1 && now >= s.nextMigrate
	if s.detector == nil && len(s.queue) == 0 && !due {
		return
	}
	s.reconcileAll()
	if s.detector != nil {
		s.detectPass(now)
		if s.cfg.Fault.CheckpointEvery > 0 && now >= s.nextCkpt {
			s.snapshotPass()
			s.nextCkpt = now + s.cfg.Fault.CheckpointEvery
		}
	}
	s.drain()
	if due {
		s.migratePass()
		s.nextMigrate = now + s.cfg.MigrateEvery
	}
}

// detectPass feeds each node's liveness into the failure detector and acts
// on transitions: a node silent past the heartbeat timeout is declared down
// and its applications are salvaged; a down node stepping again is marked
// back up and becomes placeable.
func (s *Scheduler) detectPass(now sim.Time) {
	for i, n := range s.f.Nodes() {
		failed, recovered := s.detector.Observe(i, !n.Failed(), now)
		if failed {
			n.SetDown(true)
			s.recoverNode(n)
		}
		if recovered {
			n.SetDown(false)
		}
	}
}

// recoverNode salvages every application placed on a node just declared
// failed: the host promotes each app's last background snapshot to its
// pending restore state, and the app rejoins the queue — this tick's drain
// re-places it onto a surviving node, or it degrades gracefully to waiting
// in the admission queue when no capacity survives.
func (s *Scheduler) recoverNode(n *Node) {
	for _, app := range s.apps {
		if app.state != appPlaced || app.node != n {
			continue
		}
		s.fhost.Salvage(n, app)
		app.recovering = true
		app.retries = 0
		app.nextTryAt = 0
		s.recovered++
		s.enqueue(app)
	}
}

// snapshotPass takes the periodic background checkpoint of every placed
// application on a live machine. Apps on crashed-but-undetected nodes are
// skipped — there is nothing left to snapshot there.
func (s *Scheduler) snapshotPass() {
	for _, app := range s.apps {
		if app.state != appPlaced || app.node.Failed() {
			continue
		}
		s.fhost.Snapshot(app.node, app)
	}
}

// transferFault records a transient transfer failure: the app backs off
// exponentially (seeded jitter) before its next admission attempt.
func (s *Scheduler) transferFault(app *App) {
	s.transferFails++
	app.retries++
	app.nextTryAt = s.f.Now() + s.backoff.Delay(app.retries)
}

// drain admits queued applications FIFO against current capacity (tables
// already reconciled). While everything is saturated — the common state of
// a backed-up queue — the O(nodes) admittability check is the whole cost:
// no per-app placement scoring.
func (s *Scheduler) drain() {
	if len(s.queue) == 0 || !s.anyAdmittable() {
		return
	}
	now := s.f.Now()
	kept := s.queue[:0]
	for _, app := range s.queue {
		// An app backing off after a failed transfer waits out its delay.
		if app.nextTryAt > now || !s.tryAdmit(app) {
			kept = append(kept, app)
		}
	}
	s.queue = kept
}

// tryAdmit places the app on the best admissible node right now, returning
// false when none exists or the admission failed. The caller has reconciled
// the partition tables. Every call is one decision point: it consumes one
// decision ID, honours a forced override at that ID, updates the always-on
// rollup, and reports the full candidate set to the observer when one is
// attached.
func (s *Scheduler) tryAdmit(app *App) bool {
	kind := decision.Admit
	if app.recovering {
		kind = decision.Recover
	}
	p := s.pick(app, nil, 0)
	if forced, ok := s.forcedAt(s.rollup.Decisions); ok {
		p.best = forced
	}
	if p.best == nil {
		s.record(kind, app, nil, p, decision.OutcomeNoCandidate)
		return false
	}
	queuedAt := app.queuedAt
	switch s.host.Admit(p.best, app) {
	case AdmitOK:
		app.state = appPlaced
		app.node = p.best
		app.placedAt = s.f.Now()
		app.retries = 0
		app.nextTryAt = 0
		app.recovering = false
		s.admitted++
		s.rollup.Admissions++
		if kind == decision.Recover {
			s.rollup.Replacements++
		}
		s.rollup.QueueWait.Observe(int64(s.f.Now() - queuedAt))
		s.record(kind, app, nil, p, decision.OutcomePlaced)
		return true
	case AdmitTransferFailed:
		s.transferFault(app)
		s.record(kind, app, nil, p, decision.OutcomeTransferFailed)
	default:
		s.record(kind, app, nil, p, decision.OutcomeNoCapacity)
	}
	return false
}

// pickResult is one pick's full outcome: the winning node plus the
// decision-observability byproducts — the candidate set (only built when an
// observer is attached) and the winner's score margin over the runner-up.
type pickResult struct {
	best     *Node
	cands    []decision.Candidate
	margin   float64
	marginOK bool // at least two eligible candidates scored finitely
}

// pick returns the admissible node the policy prefers (highest score, ties
// to the lowest index), honouring pinning, an optional exclusion, and a
// free-core floor (migration destinations must offer real headroom). The
// choice is exactly the historical one; the extra bookkeeping only feeds
// the observability rollup and the attached observer, and the candidate
// set is not built at all without one.
func (s *Scheduler) pick(app *App, exclude *Node, minFree int) pickResult {
	rec := s.cfg.Observer != nil
	var p pickResult
	var bestScore, second float64
	haveSecond := false
	for _, n := range s.f.Nodes() {
		reason := ""
		switch {
		case n == exclude:
			reason = decision.ReasonSource
		case app.Pinned != nil && n != app.Pinned:
			reason = decision.ReasonPinned
		case !n.CanAdmit():
			if n.Down() {
				reason = decision.ReasonDown
			} else {
				reason = decision.ReasonFull
			}
		case minFree > 0 && n.FreeCores(hmp.Big)+n.FreeCores(hmp.Little) < minFree:
			reason = decision.ReasonMinFree
		}
		if reason != "" {
			if rec {
				// Excluded candidates record -Inf, except the migration
				// source: its real score is what the gate compares against.
				score := math.Inf(-1)
				if reason == decision.ReasonSource {
					score = s.cfg.Policy.Score(n, app)
				}
				p.cands = append(p.cands, decision.Candidate{Node: n.Name, Score: score, Reason: reason})
			}
			continue
		}
		score := s.cfg.Policy.Score(n, app)
		if rec {
			p.cands = append(p.cands, decision.Candidate{Node: n.Name, Score: score})
		}
		switch {
		case p.best == nil:
			p.best, bestScore = n, score
		case score > bestScore:
			second, haveSecond = bestScore, true
			p.best, bestScore = n, score
		case !haveSecond || score > second:
			second, haveSecond = score, true
		}
	}
	if p.best != nil && haveSecond && !math.IsInf(bestScore, -1) && !math.IsInf(second, -1) {
		p.margin, p.marginOK = bestScore-second, true
	}
	return p
}

// forcedAt resolves a Config.Force override for the decision about to be
// made (in-range indices only).
func (s *Scheduler) forcedAt(id uint64) (*Node, bool) {
	idx, ok := s.cfg.Force[id]
	if !ok || idx < 0 || idx >= len(s.f.Nodes()) {
		return nil, false
	}
	return s.f.Nodes()[idx], true
}

// record closes one decision point: it assigns the decision ID, folds the
// margin into the always-on rollup, and hands the full record to the
// observer when one is attached.
func (s *Scheduler) record(kind decision.Kind, app *App, src *Node, p pickResult, outcome string) {
	id := s.rollup.Decisions
	s.rollup.Decisions++
	if p.marginOK {
		s.rollup.MarginSum += p.margin
		s.rollup.MarginCount++
	}
	if outcome == decision.OutcomeNoCandidate {
		s.rollup.NoCandidate++
	}
	if s.cfg.Observer == nil {
		return
	}
	r := decision.Record{
		ID: id, T: s.f.Now(), Kind: kind, App: app.Name,
		Outcome: outcome, Candidates: p.cands,
	}
	if src != nil {
		r.From = src.Name
	}
	if p.best != nil {
		r.Chosen = p.best.Name
	}
	if p.marginOK {
		r.Margin = p.margin
	}
	s.cfg.Observer.Decision(r)
}

// migratePass moves at most one application off every saturated
// partitioned node: the node has no free core in either cluster, so new
// arrivals there queue and its own applications cannot grow. The victim is
// the smallest-allocation unpinned application (cheapest to move; ties to
// the most recent arrival), the destination is the policy's preferred node
// among those with MigrateMinFree free cores — strictly more free cores
// than the victim already holds, so every move gives the victim room to
// grow and frees its whole allocation on the source — and only if the
// policy does not score the destination below the victim's current node,
// so a move whose predicted gain does not cover its cost (the SLO-aware
// policy charges the checkpoint delay against the app's slack here) simply
// does not happen — though it is recorded as an explicit gated no-op
// decision, so regret analysis can see the moves the policy declined. The
// strict-gain rule is also what makes the pass stable: an app that
// saturates every node it lands on finds no destination better than where
// it sits, instead of ping-ponging between equally-sized nodes every pass.
func (s *Scheduler) migratePass() {
	now := s.f.Now()
	for _, src := range s.f.Nodes() {
		if src.MP == nil || src.Failed() {
			continue
		}
		if src.MP.FreeCores(hmp.Big)+src.MP.FreeCores(hmp.Little) > 0 {
			continue
		}
		victim, alloc := s.victimOn(src, now)
		if victim == nil {
			continue
		}
		minFree := s.cfg.MigrateMinFree
		if alloc+1 > minFree {
			minFree = alloc + 1
		}
		// One decision point per destination pick, whatever its outcome —
		// including the no-op the score gate turns it into. A forced
		// override (counterfactual replay) takes the pick's place and
		// skips the gate: the replay exists to see the declined move play
		// out.
		p := s.pick(victim, src, minFree)
		forced, isForced := s.forcedAt(s.rollup.Decisions)
		if isForced {
			p.best = forced
		}
		dest := p.best
		if dest == nil {
			s.record(decision.Migrate, victim, src, p, decision.OutcomeNoCandidate)
			continue
		}
		if !isForced && s.cfg.Policy.Score(dest, victim) < s.cfg.Policy.Score(src, victim) {
			s.rollup.GatedMigrations++
			s.record(decision.Gated, victim, src, p, decision.OutcomeHeld)
			continue
		}
		s.host.Checkpoint(src, victim)
		res := s.host.Admit(dest, victim)
		if res == AdmitOK {
			victim.node = dest
			victim.placedAt = now
			victim.migrations++
			s.migrations++
			s.admitted++
			s.rollup.Migrations++
			s.record(decision.Migrate, victim, src, p, decision.OutcomeMoved)
			continue
		}
		if res == AdmitTransferFailed {
			s.transferFault(victim)
			s.record(decision.Migrate, victim, src, p, decision.OutcomeTransferFailed)
		} else {
			s.record(decision.Migrate, victim, src, p, decision.OutcomeNoCapacity)
		}
		// Capacity vanished mid-move (or the transfer failed): the app
		// rejoins the queue and a later drain re-places it.
		s.enqueue(victim)
	}
}

// victimOn picks the application to move off a saturated node (and returns
// its current core allocation): unpinned, past the cooldown, smallest
// partition allocation, ties to the latest arrival. The cooldown is
// strict — an app placed exactly one migration period ago is still
// cooling — so an app moved in one pass is never eligible again in the
// very next pass: bouncing between two nodes on consecutive passes is
// impossible by construction, whatever the policy scores say.
func (s *Scheduler) victimOn(src *Node, now sim.Time) (*App, int) {
	var victim *App
	victimAlloc := 0
	for _, app := range s.apps {
		if app.state != appPlaced || app.node != src || app.Pinned != nil || app.Proc == nil {
			continue
		}
		if now-app.placedAt <= s.cfg.MigrateEvery {
			continue
		}
		b, l := src.MP.Allocation(app.Proc)
		alloc := b + l
		if victim == nil || alloc < victimAlloc || (alloc == victimAlloc && app.seq > victim.seq) {
			victim, victimAlloc = app, alloc
		}
	}
	return victim, victimAlloc
}

// CheckInvariants verifies the scheduler's conservation properties: every
// application is in exactly one lifecycle state, placed applications sit on
// exactly one fleet node (and on that node's partition manager, when it has
// one), queued applications sit on none, and no process is registered with
// two nodes' managers. Strict scenario runs call it after every action.
func (s *Scheduler) CheckInvariants() error {
	queued := make(map[*App]bool, len(s.queue))
	for _, app := range s.queue {
		if queued[app] {
			return fmt.Errorf("fleet: app %q queued twice", app.Name)
		}
		queued[app] = true
		if app.state != appQueued {
			return fmt.Errorf("fleet: app %q in queue but not in queued state", app.Name)
		}
	}
	owner := make(map[*sim.Process]*Node)
	for _, n := range s.f.Nodes() {
		if n.MP == nil {
			continue
		}
		for _, p := range n.MP.Apps() {
			if prev, ok := owner[p]; ok {
				return fmt.Errorf("fleet: process %q registered on nodes %q and %q", p.Name, prev.Name, n.Name)
			}
			owner[p] = n
		}
	}
	for _, app := range s.apps {
		switch app.state {
		case appQueued:
			if !queued[app] {
				return fmt.Errorf("fleet: app %q in queued state but not in queue", app.Name)
			}
			if app.node != nil {
				return fmt.Errorf("fleet: queued app %q has a node", app.Name)
			}
		case appPlaced:
			if queued[app] {
				return fmt.Errorf("fleet: placed app %q still in queue", app.Name)
			}
			if app.node == nil {
				return fmt.Errorf("fleet: placed app %q has no node", app.Name)
			}
			if app.node.Down() {
				return fmt.Errorf("fleet: app %q still placed on node %q after failure detection",
					app.Name, app.node.Name)
			}
			if app.Pinned != nil && app.node != app.Pinned {
				return fmt.Errorf("fleet: app %q pinned to %q but placed on %q",
					app.Name, app.Pinned.Name, app.node.Name)
			}
			// Between a crash and its detection the app is still "placed"
			// but the crash teardown already unregistered its process, so
			// the owner check only applies to live machines.
			if app.Proc != nil && app.node.MP != nil && !app.node.Failed() {
				if owner[app.Proc] != app.node {
					return fmt.Errorf("fleet: app %q placed on %q but its process is registered elsewhere",
						app.Name, app.node.Name)
				}
			}
		case appDeparted:
			if queued[app] {
				return fmt.Errorf("fleet: departed app %q still in queue", app.Name)
			}
		}
	}
	return nil
}
