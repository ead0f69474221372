package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sort"
	"sync"

	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/gts"
	"repro/internal/hmp"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// Manager kinds accepted by Scenario.Manager.
const (
	ManagerNone    = "none"
	ManagerGTS     = "gts"
	ManagerHARSI   = "hars-i"
	ManagerHARSE   = "hars-e"
	ManagerHARSEI  = "hars-ei"
	ManagerMPHARSI = "mphars-i"
	ManagerMPHARSE = "mphars-e"
)

// Event kinds accepted by Event.Kind.
const (
	KindHotplug = "hotplug"
	KindDVFSCap = "dvfs_cap"
	KindTarget  = "target"
	KindPhase   = "phase"
)

// TargetSpec is an explicit heartbeat-rate band.
type TargetSpec struct {
	Min float64 `json:"min"`
	Avg float64 `json:"avg"`
	Max float64 `json:"max"`
}

// SLOSpec is an application's service-level objective: the heartbeat rate
// it must sustain and the extra placement latency (queueing plus migration
// freeze) its owner tolerates. SLO-aware placement scores nodes against
// it, and the engine counts a miss for every trace sample at which the
// application delivers less than target_hps (a queued or frozen app
// delivers nothing and always misses).
type SLOSpec struct {
	TargetHPS float64 `json:"target_hps"`
	SlackMS   int64   `json:"slack_ms,omitempty"`
}

// CheckpointSpec configures the work-conserving migration cost model: a
// moved application is frozen for freeze_us plus per_mb_us × size_mb and
// resumes on the destination only once that delay has elapsed on the
// shared clock. The zero value (or a missing block) is a free move —
// state transfers within the migrate tick and the trace is bit-for-bit
// the free-move trace.
type CheckpointSpec struct {
	FreezeUS int64   `json:"freeze_us,omitempty"`
	PerMBUS  int64   `json:"per_mb_us,omitempty"`
	SizeMB   float64 `json:"size_mb,omitempty"`
}

// Cost converts the spec to the simulator's cost model (nil = free).
func (c *CheckpointSpec) Cost() sim.CheckpointCost {
	if c == nil {
		return sim.CheckpointCost{}
	}
	return sim.CheckpointCost{
		Freeze: sim.Time(c.FreezeUS) * sim.Microsecond,
		PerMB:  sim.Time(c.PerMBUS) * sim.Microsecond,
		SizeMB: c.SizeMB,
	}
}

// AppSpec describes one application of a scenario.
type AppSpec struct {
	Name       string      `json:"name"`
	Bench      string      `json:"bench"`                 // workload two-letter tag (BL, BO, FA, FE, FL, SW)
	Threads    int         `json:"threads,omitempty"`     // default 8
	StartMS    int64       `json:"start_ms,omitempty"`    // arrival time
	StopMS     int64       `json:"stop_ms,omitempty"`     // departure time; 0 = end of run
	TargetFrac float64     `json:"target_frac,omitempty"` // fraction of max rate; default 0.5
	Target     *TargetSpec `json:"target,omitempty"`      // explicit band (overrides frac)
	HBWindow   int         `json:"hb_window,omitempty"`   // heartbeat window; default 10
	// InitBig and InitLittle are the MP-HARS initial core allocation.
	// Pointers so an explicit 0 ("no big cores, please") is distinguishable
	// from unset (default 1+1).
	InitBig    *int `json:"init_big,omitempty"`
	InitLittle *int `json:"init_little,omitempty"`

	// Node pins the application to one named node of a multi-node
	// scenario: it is admitted there or queues there, and it never
	// migrates. Empty = placed by the fleet's placement policy.
	Node string `json:"node,omitempty"`

	// Affinity pins the application's threads to an explicit CPU set for
	// its whole life — the per-app affinity mask, enforced by the placer
	// on every placement and hotplug re-placement. Only unmanaged
	// scenarios ("none", "gts") accept it: the HARS and MP-HARS managers
	// own their applications' affinity masks.
	Affinity []int `json:"affinity,omitempty"`

	// SLO is the application's service-level objective (optional): the
	// slo-aware placement policy scores against it, and the result
	// reports per-sample misses.
	SLO *SLOSpec `json:"slo,omitempty"`
}

// NodeSpec describes one machine of a multi-node (fleet) scenario.
type NodeSpec struct {
	// Name is the node's fleet-unique name; events and app pins address it.
	Name string `json:"name"`

	// Platform is the node's board description, the same JSON
	// hmp.ReadPlatform accepts, embedded inline. Nil selects the default
	// ODROID-XU3-like platform — so a heterogeneous fleet mixes custom
	// and stock boards freely.
	Platform *hmp.Platform `json:"platform,omitempty"`

	// Manager is the node's runtime manager kind; empty inherits the
	// scenario's manager.
	Manager string `json:"manager,omitempty"`

	// AdaptEvery and OverheadCPU override the scenario-level manager
	// settings for this node (0 inherits).
	AdaptEvery  int64 `json:"adapt_every,omitempty"`
	OverheadCPU int   `json:"overhead_cpu,omitempty"`

	// Thermal is the node's closed-loop thermal block; nil inherits the
	// scenario-level block (which in a multi-node scenario acts as the
	// fleet-wide default).
	Thermal *thermal.Spec `json:"thermal,omitempty"`
}

// maxOccurrences bounds the total number of event firings a scenario may
// expand to through every_ms repetition, so a pathological period cannot
// blow up validation or the engine's action timeline.
const maxOccurrences = 100_000

// Event is one timed dynamic event.
type Event struct {
	AtMS int64  `json:"at_ms"`
	Kind string `json:"kind"`

	// EveryMS, when positive, repeats the event every EveryMS milliseconds
	// starting at AtMS, until the run ends or Repeat firings have happened
	// (Repeat 0 = until the end). Thermal stress tests use this to pulse
	// load without hand-unrolled event lists.
	EveryMS int64 `json:"every_ms,omitempty"`
	Repeat  int   `json:"repeat,omitempty"`

	// Node addresses the event to one named node of a multi-node scenario.
	// Required for hotplug and dvfs_cap when the scenario declares nodes;
	// app events (target, phase) address the app instead and must leave it
	// empty.
	Node string `json:"node,omitempty"`

	// hotplug
	CPU    int   `json:"cpu,omitempty"`
	Online *bool `json:"online,omitempty"`

	// dvfs_cap
	Cluster  string `json:"cluster,omitempty"` // "big" or "little"
	MaxLevel int    `json:"max_level,omitempty"`

	// target / phase
	App    string      `json:"app,omitempty"`
	Frac   float64     `json:"frac,omitempty"`
	Target *TargetSpec `json:"target,omitempty"`
	Scale  float64     `json:"scale,omitempty"`
}

// Scenario is one declarative dynamic-event run.
type Scenario struct {
	Name          string    `json:"name"`
	Seed          int64     `json:"seed,omitempty"` // generator seed, informational
	Manager       string    `json:"manager"`
	DurationMS    int64     `json:"duration_ms"`
	SampleEveryMS int64     `json:"sample_every_ms,omitempty"` // trace cadence, default 100
	AdaptEvery    int64     `json:"adapt_every,omitempty"`     // manager adaptation period (beats)
	OverheadCPU   int       `json:"overhead_cpu,omitempty"`    // CPU charged with manager overhead
	Apps          []AppSpec `json:"apps"`
	Events        []Event   `json:"events,omitempty"`

	// Thermal, when present and enabled, closes the thermal loop: a per-run
	// RC temperature model plus governor daemon derives the DVFS ceilings
	// from simulated heat (see package thermal). Enabled thermal excludes
	// scripted dvfs_cap events — the governor owns the ceilings. In a
	// multi-node scenario this block is the fleet-wide default; nodes
	// override it with their own.
	Thermal *thermal.Spec `json:"thermal,omitempty"`

	// Nodes turns the scenario into a multi-node (fleet) run: every entry
	// is one machine with its own platform, manager, and thermal loop, all
	// advancing on one deterministic clock. Arrivals are admitted to a
	// node by the Placement policy (or their pin), queue fleet-wide when
	// no node has a free partition, and may migrate off saturated nodes.
	// An empty list is the classic single-machine scenario.
	Nodes []NodeSpec `json:"nodes,omitempty"`

	// Placement names the fleet placement policy: "least-loaded"
	// (default), "big-first" (most free big-core capacity), or "coolest"
	// (lowest modeled temperature).
	Placement string `json:"placement,omitempty"`

	// MigrateEveryMS is the period of the fleet scheduler's saturation
	// check (0 = the 250 ms default, negative disables migration).
	MigrateEveryMS int64 `json:"migrate_every_ms,omitempty"`

	// Checkpoint is the work-conserving migration cost model (fleet
	// scenarios only); nil or all-zero means free moves.
	Checkpoint *CheckpointSpec `json:"checkpoint,omitempty"`

	// Arrivals are declarative per-node traffic traces: each stream
	// expands — deterministically from its seed — into a sequence of
	// application arrivals whose rate follows the stream's piecewise-
	// constant profile. Expansion happens at validation/run time; the
	// scenario document itself is untouched, so replays stay
	// byte-identical.
	Arrivals []ArrivalStream `json:"arrivals,omitempty"`

	// Faults, when present, arms the fault-injection and recovery layer
	// (fleet scenarios only): scripted and seeded-random node crashes,
	// permanent core failures, and transient checkpoint-transfer failures,
	// all expanded deterministically on the shared clock — plus the
	// recovery machinery (heartbeat-timeout failure detection, periodic
	// background checkpoints, snapshot re-placement with capped
	// exponential retry backoff). Absent, nothing fault-related runs and
	// traces are bit-identical to pre-fault ones.
	Faults *fault.Spec `json:"faults,omitempty"`

	// Decisions, when present and enabled, opts the run into decision
	// tracing: every fleet scheduler decision — admission picks,
	// migrate-pass picks including gated no-ops, crash re-placements — is
	// recorded with its full scored candidate set, emitted as gated "d"
	// trace lines, and retained on Result.DecisionRecords. Absent (or
	// disabled), no decision line is written and traces are bit-identical
	// to pre-decision ones; the always-on Result.Decisions rollup is
	// maintained regardless.
	Decisions *DecisionSpec `json:"decisions,omitempty"`
}

// DecisionSpec is the scenario's decision-tracing block.
type DecisionSpec struct {
	// Enabled turns decision tracing on (a present-but-disabled block is
	// inert, mirroring the thermal block).
	Enabled bool `json:"enabled"`
	// Keep bounds the decision records retained on Result.DecisionRecords;
	// beyond it, records still reach the trace but are dropped from the
	// in-memory log and counted on Result.DecisionsDropped. 0 keeps
	// 100,000.
	Keep int `json:"keep,omitempty"`
}

// Decode parses and validates a scenario document. Unknown fields are
// rejected so typos surface instead of silently doing nothing.
func Decode(r io.Reader) (*Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("scenario: decode: %w", err)
	}
	// The decoder consumes exactly one JSON value; anything non-whitespace
	// after it means the document is malformed (a truncated edit, two specs
	// concatenated), not a scenario followed by noise — reject it instead
	// of silently running the first value.
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("scenario: decode: trailing data after the scenario document")
	}
	// The optional list fields carry omitempty, so an explicitly-empty
	// list in the input ("events": []) would be dropped by Encode and
	// re-decode as nil; normalize to nil up front so Decode∘Encode∘Decode
	// is the identity (the fuzz target checks exactly that).
	if len(sc.Events) == 0 {
		sc.Events = nil
	}
	if len(sc.Nodes) == 0 {
		sc.Nodes = nil
	}
	if len(sc.Arrivals) == 0 {
		sc.Arrivals = nil
	}
	for i := range sc.Apps {
		if len(sc.Apps[i].Affinity) == 0 {
			sc.Apps[i].Affinity = nil
		}
	}
	if sc.Faults != nil {
		if len(sc.Faults.Crashes) == 0 {
			sc.Faults.Crashes = nil
		}
		if len(sc.Faults.CoreFailures) == 0 {
			sc.Faults.CoreFailures = nil
		}
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// Encode writes the scenario as indented JSON.
func (sc *Scenario) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sc); err != nil {
		return fmt.Errorf("scenario: encode: %w", err)
	}
	return nil
}

// validManagers lists the accepted manager kinds.
var validManagers = map[string]bool{
	ManagerNone: true, ManagerGTS: true,
	ManagerHARSI: true, ManagerHARSE: true, ManagerHARSEI: true,
	ManagerMPHARSI: true, ManagerMPHARSE: true,
}

// resolvedNode is one machine of the run after default resolution: the
// single legacy node of a classic scenario, or one entry of the nodes list.
// Validation and the engine share it so they cannot drift.
type resolvedNode struct {
	idx         int
	name        string // "" for the legacy single node
	plat        *hmp.Platform
	platKey     string // gts.PlatformKey(plat)
	manager     string
	adaptEvery  int64
	overheadCPU int
	thermal     *thermal.Spec // nil or disabled ⇒ no governor
}

func (rn *resolvedNode) thermalOn() bool {
	return rn.thermal != nil && rn.thermal.Enabled
}

// defaultBoard is the platform of the legacy single node and of every fleet
// node that declares none: one hmp.Default() instance and its content key,
// shared process-wide.
var defaultBoard = sync.OnceValues(func() (*hmp.Platform, string) {
	p := hmp.Default()
	return p, gts.PlatformKey(p)
})

// resolveNodes expands the scenario's node list against defaults: a
// scenario without nodes becomes one legacy node on the default board, a
// multi-node scenario resolves each entry's platform, manager, and thermal
// block. Per-node validity (platform description, manager kind, thermal
// spec against the node's grid) is checked here.
func (sc *Scenario) resolveNodes() ([]resolvedNode, error) {
	if len(sc.Nodes) == 0 {
		plat, key := defaultBoard()
		if err := validateThermal(sc.Thermal, plat, ""); err != nil {
			return nil, err
		}
		return []resolvedNode{{
			idx: 0, plat: plat, platKey: key, manager: sc.Manager,
			adaptEvery: sc.AdaptEvery, overheadCPU: sc.OverheadCPU,
			thermal: sc.Thermal,
		}}, nil
	}
	out := make([]resolvedNode, 0, len(sc.Nodes))
	seen := make(map[string]bool, len(sc.Nodes))
	// Boards are interned by content: nodes with identical platforms share
	// one instance and its key, computed once per distinct board (nothing
	// mutates a platform after resolution).
	var boards []resolvedNode // plat and platKey of each distinct board
	for i := range sc.Nodes {
		ns := &sc.Nodes[i]
		if ns.Name == "" {
			return nil, fmt.Errorf("scenario: node %d has no name", i)
		}
		if seen[ns.Name] {
			return nil, fmt.Errorf("scenario: duplicate node name %q", ns.Name)
		}
		seen[ns.Name] = true
		nplat, key := defaultBoard()
		if p := ns.Platform; p != nil {
			if err := p.Validate(); err != nil {
				return nil, fmt.Errorf("scenario: node %q: %w", ns.Name, err)
			}
			p.Normalize()
			nplat, key = p, ""
			for _, b := range boards {
				if reflect.DeepEqual(b.plat, p) {
					nplat, key = b.plat, b.platKey
					break
				}
			}
			if key == "" {
				key = gts.PlatformKey(p)
				boards = append(boards, resolvedNode{plat: p, platKey: key})
			}
		}
		mgr := ns.Manager
		if mgr == "" {
			mgr = sc.Manager
		}
		if !validManagers[mgr] {
			return nil, fmt.Errorf("scenario: node %q: unknown manager %q", ns.Name, mgr)
		}
		adapt := ns.AdaptEvery
		if adapt == 0 {
			adapt = sc.AdaptEvery
		}
		if adapt < 0 || ns.AdaptEvery < 0 {
			return nil, fmt.Errorf("scenario: node %q: negative adapt_every", ns.Name)
		}
		ohCPU := ns.OverheadCPU
		if ohCPU == 0 {
			ohCPU = sc.OverheadCPU
		}
		th := ns.Thermal
		if th == nil {
			th = sc.Thermal
		}
		if err := validateThermal(th, nplat, ns.Name); err != nil {
			return nil, err
		}
		out = append(out, resolvedNode{
			idx: i, name: ns.Name, plat: nplat, platKey: key, manager: mgr,
			adaptEvery: adapt, overheadCPU: ohCPU, thermal: th,
		})
	}
	return out, nil
}

// validateThermal checks a (possibly nil) thermal block against one node's
// platform grid. node is the node name for error context ("" legacy).
func validateThermal(th *thermal.Spec, plat *hmp.Platform, node string) error {
	if th == nil {
		return nil
	}
	ctx := "scenario"
	if node != "" {
		ctx = fmt.Sprintf("scenario: node %q", node)
	}
	if err := th.Validate(); err != nil {
		return fmt.Errorf("%s: %w", ctx, err)
	}
	r := th.WithDefaults()
	for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
		if r.MinLevel > plat.Clusters[k].MaxLevel() {
			return fmt.Errorf("%s: thermal min_level %d outside the %s grid", ctx, r.MinLevel, k)
		}
	}
	return nil
}

// nodeByName finds a resolved node, or nil.
func nodeByName(nodes []resolvedNode, name string) *resolvedNode {
	for i := range nodes {
		if nodes[i].name == name {
			return &nodes[i]
		}
	}
	return nil
}

// unmanaged reports whether a manager kind leaves thread placement to the
// OS scheduler model (no HARS/MP-HARS manager owning affinity masks).
func unmanaged(mgr string) bool { return mgr == ManagerNone || mgr == ManagerGTS }

// Validate checks the scenario: well-formed specs, known references, and a
// hotplug sequence that never takes the last core offline. The legacy
// single node validates against the default platform.
func (sc *Scenario) Validate() error {
	_, _, err := sc.resolveAndValidate()
	return err
}

// resolveAndValidate is the shared entry of Validate and the engine: it
// resolves the node list and the full application list (declared apps plus
// arrival-stream expansions) once and validates the whole scenario against
// them, returning both so Run does not repeat the work.
func (sc *Scenario) resolveAndValidate() ([]resolvedNode, []AppSpec, error) {
	if sc.DurationMS <= 0 {
		return nil, nil, fmt.Errorf("scenario: duration_ms must be positive, got %d", sc.DurationMS)
	}
	if !validManagers[sc.Manager] {
		return nil, nil, fmt.Errorf("scenario: unknown manager %q", sc.Manager)
	}
	if sc.SampleEveryMS < 0 || sc.AdaptEvery < 0 {
		return nil, nil, fmt.Errorf("scenario: negative sample_every_ms or adapt_every")
	}
	if _, err := fleet.PolicyByName(sc.Placement, sim.CheckpointCost{}); err != nil {
		return nil, nil, fmt.Errorf("scenario: %w", err)
	}
	if len(sc.Nodes) == 0 {
		if sc.Placement != "" {
			return nil, nil, fmt.Errorf("scenario: placement %q needs a nodes list", sc.Placement)
		}
		if sc.MigrateEveryMS != 0 {
			return nil, nil, fmt.Errorf("scenario: migrate_every_ms needs a nodes list")
		}
		if sc.Checkpoint != nil {
			return nil, nil, fmt.Errorf("scenario: checkpoint needs a nodes list")
		}
	}
	if c := sc.Checkpoint; c != nil && (c.FreezeUS < 0 || c.PerMBUS < 0 || c.SizeMB < 0) {
		return nil, nil, fmt.Errorf("scenario: negative checkpoint cost")
	}
	if sc.Faults != nil && len(sc.Nodes) == 0 {
		return nil, nil, fmt.Errorf("scenario: faults needs a nodes list")
	}
	if sc.Decisions != nil && sc.Decisions.Keep < 0 {
		return nil, nil, fmt.Errorf("scenario: decisions: negative keep")
	}
	apps, err := sc.expandApps()
	if err != nil {
		return nil, nil, err
	}
	if len(apps) == 0 {
		return nil, nil, fmt.Errorf("scenario: no apps")
	}
	nodes, err := sc.resolveNodes()
	if err != nil {
		return nil, nil, err
	}
	fleetMode := len(sc.Nodes) > 0

	names := make(map[string]bool, len(apps))
	for i := range apps {
		a := &apps[i]
		if a.Name == "" {
			return nil, nil, fmt.Errorf("scenario: app %d has no name", i)
		}
		if names[a.Name] {
			return nil, nil, fmt.Errorf("scenario: duplicate app name %q", a.Name)
		}
		names[a.Name] = true
		if _, ok := workload.ByShort(a.Bench); !ok {
			return nil, nil, fmt.Errorf("scenario: app %q: unknown bench %q", a.Name, a.Bench)
		}
		if a.Threads < 0 {
			return nil, nil, fmt.Errorf("scenario: app %q: negative threads", a.Name)
		}
		if a.StartMS < 0 || a.StartMS >= sc.DurationMS {
			return nil, nil, fmt.Errorf("scenario: app %q: start_ms %d outside [0, %d)", a.Name, a.StartMS, sc.DurationMS)
		}
		if a.StopMS != 0 && (a.StopMS <= a.StartMS || a.StopMS > sc.DurationMS) {
			return nil, nil, fmt.Errorf("scenario: app %q: stop_ms %d outside (start, duration]", a.Name, a.StopMS)
		}
		if a.SLO != nil && (a.SLO.TargetHPS <= 0 || a.SLO.SlackMS < 0) {
			return nil, nil, fmt.Errorf("scenario: app %q: slo needs a positive target_hps and non-negative slack_ms", a.Name)
		}
		if a.Target != nil {
			if !(a.Target.Min > 0 && a.Target.Min <= a.Target.Avg && a.Target.Avg <= a.Target.Max) {
				return nil, nil, fmt.Errorf("scenario: app %q: malformed target band", a.Name)
			}
		} else if a.TargetFrac < 0 || a.TargetFrac > 1 {
			return nil, nil, fmt.Errorf("scenario: app %q: target_frac %v outside [0, 1]", a.Name, a.TargetFrac)
		}

		// The candidate nodes the app may land on: its pin, or all of them.
		candidates := nodes
		if a.Node != "" {
			if !fleetMode {
				return nil, nil, fmt.Errorf("scenario: app %q: node pin needs a nodes list", a.Name)
			}
			rn := nodeByName(nodes, a.Node)
			if rn == nil {
				return nil, nil, fmt.Errorf("scenario: app %q: unknown node %q", a.Name, a.Node)
			}
			candidates = nodes[rn.idx : rn.idx+1]
		}
		initB := intOr(a.InitBig, 1)
		initL := intOr(a.InitLittle, 1)
		if initB < 0 || initL < 0 {
			return nil, nil, fmt.Errorf("scenario: app %q: negative initial allocation", a.Name)
		}
		if initB+initL == 0 {
			return nil, nil, fmt.Errorf("scenario: app %q: initial allocation is empty", a.Name)
		}
		fits := false
		for _, rn := range candidates {
			if initB <= rn.plat.Clusters[hmp.Big].Cores && initL <= rn.plat.Clusters[hmp.Little].Cores {
				fits = true
				break
			}
		}
		if !fits {
			return nil, nil, fmt.Errorf("scenario: app %q: initial allocation outside every candidate node's platform", a.Name)
		}
		if len(a.Affinity) > 0 {
			seen := make(map[int]bool, len(a.Affinity))
			for _, cpu := range a.Affinity {
				if seen[cpu] {
					return nil, nil, fmt.Errorf("scenario: app %q: duplicate affinity cpu %d", a.Name, cpu)
				}
				seen[cpu] = true
			}
			for _, rn := range candidates {
				if !unmanaged(rn.manager) {
					return nil, nil, fmt.Errorf("scenario: app %q: affinity needs an unmanaged node (%q runs %q)",
						a.Name, rn.name, rn.manager)
				}
				for _, cpu := range a.Affinity {
					if cpu < 0 || cpu >= rn.plat.TotalCores() {
						return nil, nil, fmt.Errorf("scenario: app %q: affinity cpu %d outside candidate node platforms", a.Name, cpu)
					}
				}
			}
		}
	}

	occurrences := int64(0)
	for i := range sc.Events {
		ev := &sc.Events[i]
		if ev.AtMS < 0 || ev.AtMS > sc.DurationMS {
			return nil, nil, fmt.Errorf("scenario: event %d: at_ms %d outside [0, %d]", i, ev.AtMS, sc.DurationMS)
		}
		if ev.EveryMS < 0 {
			return nil, nil, fmt.Errorf("scenario: event %d: negative every_ms %d", i, ev.EveryMS)
		}
		if ev.Repeat < 0 {
			return nil, nil, fmt.Errorf("scenario: event %d: negative repeat %d", i, ev.Repeat)
		}
		if ev.Repeat > 0 && ev.EveryMS == 0 {
			return nil, nil, fmt.Errorf("scenario: event %d: repeat without every_ms", i)
		}
		occurrences += ev.occurrenceCount(sc.DurationMS)
		if occurrences > maxOccurrences {
			return nil, nil, fmt.Errorf("scenario: events expand to more than %d occurrences", maxOccurrences)
		}
		// Platform events address a node; app events address an app.
		var target *resolvedNode
		switch ev.Kind {
		case KindHotplug, KindDVFSCap:
			if fleetMode {
				if ev.Node == "" {
					return nil, nil, fmt.Errorf("scenario: event %d: %s needs a node in a multi-node scenario", i, ev.Kind)
				}
				if target = nodeByName(nodes, ev.Node); target == nil {
					return nil, nil, fmt.Errorf("scenario: event %d: unknown node %q", i, ev.Node)
				}
			} else {
				if ev.Node != "" {
					return nil, nil, fmt.Errorf("scenario: event %d: node %q needs a nodes list", i, ev.Node)
				}
				target = &nodes[0]
			}
		default:
			if ev.Node != "" {
				return nil, nil, fmt.Errorf("scenario: event %d: %s events address an app, not a node", i, ev.Kind)
			}
		}
		switch ev.Kind {
		case KindHotplug:
			if ev.CPU < 0 || ev.CPU >= target.plat.TotalCores() {
				return nil, nil, fmt.Errorf("scenario: event %d: cpu %d outside the platform", i, ev.CPU)
			}
			if ev.Online == nil {
				return nil, nil, fmt.Errorf("scenario: event %d: hotplug needs explicit \"online\"", i)
			}
		case KindDVFSCap:
			if target.thermalOn() {
				return nil, nil, fmt.Errorf("scenario: event %d: dvfs_cap conflicts with the enabled thermal governor (it owns the ceilings)", i)
			}
			k, err := parseCluster(ev.Cluster)
			if err != nil {
				return nil, nil, fmt.Errorf("scenario: event %d: %w", i, err)
			}
			if ev.MaxLevel < 0 || ev.MaxLevel > target.plat.Clusters[k].MaxLevel() {
				return nil, nil, fmt.Errorf("scenario: event %d: max_level %d outside the %s grid", i, ev.MaxLevel, ev.Cluster)
			}
		case KindTarget:
			if !names[ev.App] {
				return nil, nil, fmt.Errorf("scenario: event %d: unknown app %q", i, ev.App)
			}
			if ev.Target != nil {
				if !(ev.Target.Min > 0 && ev.Target.Min <= ev.Target.Avg && ev.Target.Avg <= ev.Target.Max) {
					return nil, nil, fmt.Errorf("scenario: event %d: malformed target band", i)
				}
			} else if ev.Frac <= 0 || ev.Frac > 1 {
				return nil, nil, fmt.Errorf("scenario: event %d: frac %v outside (0, 1]", i, ev.Frac)
			}
		case KindPhase:
			if !names[ev.App] {
				return nil, nil, fmt.Errorf("scenario: event %d: unknown app %q", i, ev.App)
			}
			if ev.Scale <= 0 {
				return nil, nil, fmt.Errorf("scenario: event %d: scale %v must be positive", i, ev.Scale)
			}
		default:
			return nil, nil, fmt.Errorf("scenario: event %d: unknown kind %q", i, ev.Kind)
		}
	}
	if fs := sc.Faults; fs != nil {
		if err := fs.Validate(sc.DurationMS); err != nil {
			return nil, nil, fmt.Errorf("scenario: %w", err)
		}
		for i, c := range fs.Crashes {
			if nodeByName(nodes, c.Node) == nil {
				return nil, nil, fmt.Errorf("scenario: faults: crash %d: unknown node %q", i, c.Node)
			}
		}
		for i, cf := range fs.CoreFailures {
			rn := nodeByName(nodes, cf.Node)
			if rn == nil {
				return nil, nil, fmt.Errorf("scenario: faults: core failure %d: unknown node %q", i, cf.Node)
			}
			if cf.CPU >= rn.plat.TotalCores() {
				return nil, nil, fmt.Errorf("scenario: faults: core failure %d: cpu %d outside node %q's platform",
					i, cf.CPU, cf.Node)
			}
		}
	}
	return nodes, apps, sc.checkHotplug(nodes)
}

// occurrenceCount returns how many times the event fires within a run of
// durationMS milliseconds (validation has already established AtMS ≤
// durationMS and EveryMS ≥ 0). Counts beyond maxOccurrences saturate at
// maxOccurrences+1 — enough for validation to reject — so an extreme
// duration/period pair cannot overflow int64.
func (ev *Event) occurrenceCount(durationMS int64) int64 {
	if ev.EveryMS <= 0 {
		return 1
	}
	extra := (durationMS - ev.AtMS) / ev.EveryMS // firings after the first
	if ev.Repeat > 0 && int64(ev.Repeat) <= extra {
		return int64(ev.Repeat)
	}
	if extra >= maxOccurrences {
		return maxOccurrences + 1
	}
	return extra + 1
}

// Occurrences lists the times (in ms, ascending) the event fires within a
// run of durationMS milliseconds: AtMS alone for one-shot events, or every
// EveryMS from AtMS for repeating ones.
func (ev *Event) Occurrences(durationMS int64) []int64 {
	n := ev.occurrenceCount(durationMS)
	out := make([]int64, 0, n)
	for i := int64(0); i < n; i++ {
		out = append(out, ev.AtMS+i*ev.EveryMS)
	}
	return out
}

// checkHotplug replays every node's hotplug sequence in application order
// and rejects a scenario that ever takes a node's last core offline — or
// every core of some app's affinity mask, which would starve the pinned app
// silently (its threads would intersect no online core until the platform
// grows back). Both checks keep the package promise that a validated
// scenario can always make progress.
func (sc *Scenario) checkHotplug(nodes []resolvedNode) error {
	type hp struct {
		at  int64
		seq int
		cpu int
		on  bool
	}
	for i := range nodes {
		rn := &nodes[i]
		// Affinity masks of apps that may run on this node: the pinned
		// ones, and every unpinned one (the policy may place it here).
		type pin struct {
			name string
			mask hmp.CPUMask
		}
		var pins []pin
		for j := range sc.Apps {
			a := &sc.Apps[j]
			if len(a.Affinity) == 0 || (a.Node != "" && a.Node != rn.name) {
				continue
			}
			pins = append(pins, pin{name: a.Name, mask: hmp.MaskOf(a.Affinity...)})
		}
		var seq []hp
		for j := range sc.Events {
			ev := &sc.Events[j]
			if ev.Kind != KindHotplug || ev.Node != rn.name {
				continue
			}
			for _, at := range ev.Occurrences(sc.DurationMS) {
				seq = append(seq, hp{at: at, seq: j, cpu: ev.CPU, on: *ev.Online})
			}
		}
		if sc.Faults != nil {
			// Scripted core failures participate in the same replay: they
			// act as hotplug-offs (ordered after same-time events, as the
			// engine orders them), so a fault plan may not kill a node's
			// last core or starve a pinned app either.
			for j, cf := range sc.Faults.CoreFailures {
				if cf.Node != rn.name {
					continue
				}
				seq = append(seq, hp{at: cf.AtMS, seq: len(sc.Events) + j, cpu: cf.CPU, on: false})
			}
		}
		sort.Slice(seq, func(i, j int) bool {
			if seq[i].at != seq[j].at {
				return seq[i].at < seq[j].at
			}
			return seq[i].seq < seq[j].seq
		})
		online := hmp.AllCPUs(rn.plat)
		for _, h := range seq {
			if h.on {
				online = online.Set(h.cpu)
			} else {
				online = online.Clear(h.cpu)
			}
			if online == 0 {
				return fmt.Errorf("scenario: hotplug at t=%dms takes node %q's last core offline", h.at, rn.name)
			}
			for _, p := range pins {
				if online.Intersect(p.mask) == 0 {
					return fmt.Errorf("scenario: hotplug at t=%dms takes every affinity cpu of app %q offline on node %q",
						h.at, p.name, rn.name)
				}
			}
		}
	}
	return nil
}

// IntPtr returns a pointer to v, for building AppSpec literals.
func IntPtr(v int) *int { return &v }

// intOr dereferences an optional int field, substituting def when unset.
func intOr(p *int, def int) int {
	if p == nil {
		return def
	}
	return *p
}

func parseCluster(s string) (hmp.ClusterKind, error) {
	switch s {
	case "big":
		return hmp.Big, nil
	case "little":
		return hmp.Little, nil
	}
	return 0, fmt.Errorf("unknown cluster %q", s)
}
