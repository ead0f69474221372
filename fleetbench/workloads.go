package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/fault"
	"repro/internal/hmp"
	"repro/internal/scenario"
	"repro/internal/thermal"
)

// Seeds. DefaultSeed is the one the benchmark reports on unless told
// otherwise; HeldOutSeed is kept out of tuning and exists to check a
// claimed gain on inputs the change was not shaped against.
const (
	DefaultSeed = 1
	HeldOutSeed = 7919
)

// shape sizes one generated workload. Full is what the benchmark times;
// tiny keeps the same structure at a size the package tests can afford.
type shape struct {
	nodes      int
	durationMS int64
}

// workload is one seeded fleet scenario. The CLI under test only ever
// sees the JSON that gen produces.
type workload struct {
	name string
	// why records which layers the workload loads and which it leaves
	// idle, so a change to one layer has a workload that exercises it and
	// one on which it should not move.
	why  string
	full shape
	tiny shape
	gen  func(seed int64, sh shape) *scenario.Scenario
}

var workloads = []workload{
	{
		name: "steady-64",
		why: "every node busy from t=0 with one HARS-E app under the thermal loop: host time is the simulator " +
			"tick (steady windows, thermal SteadyTick); scheduler, decision and fault layers stay idle",
		full: shape{nodes: 64, durationMS: 20000},
		tiny: shape{nodes: 4, durationMS: 1000},
		gen:  genSteady,
	},
	{
		name: "sparse-1k",
		why: "1024 nodes about 3% busy, staggered slo-aware arrivals, crashes and transfer failures, decision " +
			"tracing on: the event core, scheduler fault passes, decision formatting and trace I/O dominate",
		full: shape{nodes: 1024, durationMS: 30000},
		tiny: shape{nodes: 64, durationMS: 2000},
		gen:  genSparse,
	},
	{
		name: "churn-16",
		why: "16 MP-HARS nodes oversubscribed by Poisson streams of short FE and BO apps, 100 ms migrate " +
			"cadence: the general sim loop under churn and a decision-dense fleet scheduler",
		full: shape{nodes: 16, durationMS: 30000},
		tiny: shape{nodes: 4, durationMS: 2000},
		gen:  genChurn,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// specJSON renders a generated scenario exactly as the CLI reads it.
func specJSON(sc *scenario.Scenario) ([]byte, error) {
	var b bytes.Buffer
	if err := sc.Encode(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func nodeName(i int) string { return fmt.Sprintf("n%04d", i) }

// mixedNodes names n nodes and makes every fourth a 2 big + 6 LITTLE
// board, so placement scores and max rates differ between nodes.
func mixedNodes(n int) []scenario.NodeSpec {
	nodes := make([]scenario.NodeSpec, n)
	for i := range nodes {
		nodes[i].Name = nodeName(i)
		if i%4 == 3 { // keep in step with boardNodes
			p := hmp.Default()
			p.Clusters[hmp.Big].Cores = 2
			p.Clusters[hmp.Little].Cores = 6
			nodes[i].Platform = p
		}
	}
	return nodes
}

// boardNodes lists the indices of mixedNodes' little-heavy nodes (or of
// the default ones).
func boardNodes(n int, littleHeavy bool) []int {
	var out []int
	for i := 0; i < n; i++ {
		if (i%4 == 3) == littleHeavy {
			out = append(out, i)
		}
	}
	return out
}

// spread is a seeded low-discrepancy sequence in [0, 1): an additive
// walk by an irrational step from a random start. A seed moves every
// draw, but any long run of draws covers [0, 1) almost evenly, so the
// totals the end-to-end metrics depend on barely change from seed to
// seed. Sequences drawn side by side use the two steps of the R2
// sequence, which keeps their pairs evenly spread over the unit square
// instead of locked to one diagonal.
type spread struct{ x, step float64 }

const (
	stepA = 0.7548776662466927 // 1/g, g the plastic number
	stepB = 0.5698402909980532 // 1/g²
)

func newSpread(rng *rand.Rand, step float64) *spread { return &spread{x: rng.Float64(), step: step} }

func (s *spread) next() float64 {
	s.x = math.Mod(s.x+s.step, 1)
	return s.x
}

// maxHPS is each bench's measured heartbeat rate per unit of target
// fraction on an idle default node, by thread count. SLOs sit below the
// app's own target rate, so misses come from start-up phases, contention,
// throttling and crashes rather than from unreachable goals.
var maxHPS = map[int]map[string]float64{
	8: {"SW": 2.0, "BL": 1.9, "BO": 2.8},
	4: {"SW": 5.4, "BO": 6.3, "FE": 19},
}

func slo(bench string, threads int, frac float64, slackMS int64) *scenario.SLOSpec {
	return &scenario.SLOSpec{TargetHPS: 0.8 * frac * maxHPS[threads][bench], SlackMS: slackMS}
}

// genSteady: one pinned 8-thread HARS-E app per node from t=0. Benches
// are dealt evenly from SW/BL/BO and targets from an even spread, so
// seeds differ in which node runs what, not in the mix.
func genSteady(seed int64, sh shape) *scenario.Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := &scenario.Scenario{
		Name:       "steady-64",
		Seed:       seed,
		Manager:    scenario.ManagerHARSE,
		DurationMS: sh.durationMS,
		Thermal:    &thermal.Spec{Enabled: true},
		Nodes:      mixedNodes(sh.nodes),
	}
	// Deal the benches round-robin over each board type's nodes in a
	// seeded order, and spread each (board, bench) group's targets evenly
	// over [0.45, 0.65) from a seeded offset: every seed has the same mix,
	// and seeds differ in which node runs what.
	benches := []string{"SW", "BL", "BO"}
	bench := make([]string, sh.nodes)
	fracs := make([]float64, sh.nodes)
	offset := rng.Float64()
	for _, class := range [][]int{boardNodes(sh.nodes, false), boardNodes(sh.nodes, true)} {
		group := (len(class) + len(benches) - 1) / len(benches)
		for k, j := range rng.Perm(len(class)) {
			bench[class[j]] = benches[k%len(benches)]
			fracs[class[j]] = 0.45 + 0.2*(float64(k/len(benches))+offset)/float64(group)
		}
	}
	for i := 0; i < sh.nodes; i++ {
		b, frac := bench[i], fracs[i]
		sc.Apps = append(sc.Apps, scenario.AppSpec{
			Name:       fmt.Sprintf("s%04d", i),
			Bench:      b,
			Threads:    8,
			TargetFrac: frac,
			Node:       nodeName(i),
			SLO:        slo(b, 8, frac, 200),
		})
	}
	return sc
}

// genSparse: one in 32 nodes busy at any time. Each busy slot hosts a
// back-to-back sequence of 4–10 s apps of one bench from a random offset,
// so arrivals stagger over the whole run while each bench's share of the
// busy time stays fixed; slo-aware placement scores every node for each.
// Scripted crashes hit the low-numbered nodes, where the policy's
// index-order tie-break puts the apps; the random crash process hits
// mostly idle nodes and keeps the failure detector busy.
func genSparse(seed int64, sh shape) *scenario.Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := &scenario.Scenario{
		Name:          "sparse-1k",
		Seed:          seed,
		Manager:       scenario.ManagerHARSE,
		DurationMS:    sh.durationMS,
		SampleEveryMS: 500,
		Nodes:         make([]scenario.NodeSpec, sh.nodes),
		Placement:     "slo-aware",
		Checkpoint:    &scenario.CheckpointSpec{FreezeUS: 2000, PerMBUS: 50, SizeMB: 64},
		Decisions:     &scenario.DecisionSpec{Enabled: true},
	}
	for i := range sc.Nodes {
		sc.Nodes[i].Name = nodeName(i)
	}
	busy := sh.nodes / 32
	benches := []string{"SW", "BO", "FE"}
	lives, fracs := newSpread(rng, stepA), newSpread(rng, stepB)
	n := 0
	for slot := 0; slot < busy; slot++ {
		at := rng.Int63n(sh.durationMS / 10)
		for at < sh.durationMS {
			life := 4000 + int64(6000*lives.next())
			b := benches[slot%len(benches)]
			frac := 0.4 + 0.3*fracs.next()
			a := scenario.AppSpec{
				Name:       fmt.Sprintf("p%04d", n),
				Bench:      b,
				Threads:    4,
				StartMS:    at,
				TargetFrac: frac,
				SLO:        slo(b, 4, frac, 300),
			}
			if stop := at + life; stop < sh.durationMS {
				a.StopMS = stop
			}
			sc.Apps = append(sc.Apps, a)
			n++
			at += life
		}
	}
	fs := &fault.Spec{
		Seed:              rng.Int63(),
		CheckpointEveryMS: 500,
		TransferFailProb:  0.15,
		Random:            &fault.RandomCrashes{RatePerMin: 6, DownMS: 1500},
	}
	const crashes = 8
	for i := int64(0); i < crashes; i++ {
		fs.Crashes = append(fs.Crashes, fault.Crash{
			Node:   nodeName(rng.Intn(busy)),
			AtMS:   1 + (i*sh.durationMS+rng.Int63n(sh.durationMS))/crashes,
			DownMS: 1000 + 100*rng.Int63n(10),
		})
	}
	sc.Faults = fs
	return sc
}

// genChurn: two Poisson streams of 3–4 s FE (pipeline) and BO apps whose
// load is about twice what the MP-HARS partitions hold, so arrivals
// queue, get dropped and migrate on a 100 ms cadence.
func genChurn(seed int64, sh shape) *scenario.Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := &scenario.Scenario{
		Name:           "churn-16",
		Seed:           seed,
		Manager:        scenario.ManagerMPHARSI,
		DurationMS:     sh.durationMS,
		SampleEveryMS:  100,
		Nodes:          mixedNodes(sh.nodes),
		Placement:      "least-loaded",
		MigrateEveryMS: 100,
		Checkpoint:     &scenario.CheckpointSpec{FreezeUS: 1000, PerMBUS: 20, SizeMB: 16},
	}
	perS := 0.85 * float64(sh.nodes)
	for i, b := range []string{"FE", "BO"} {
		sc.Arrivals = append(sc.Arrivals, scenario.ArrivalStream{
			Name:       b + "-stream",
			Seed:       1 + rng.Int63n(1<<40),
			Rate:       []scenario.RateStep{{PerS: perS}},
			MaxApps:    1000,
			LifetimeMS: 3000 + 1000*int64(i),
			Bench:      b,
			Threads:    4,
			TargetFrac: 0.5,
			InitBig:    scenario.IntPtr(1),
			InitLittle: scenario.IntPtr(1),
			SLO:        &scenario.SLOSpec{TargetHPS: 0.4, SlackMS: 200},
		})
	}
	return sc
}

// cutToFirstMS returns a copy of sc that ends after its first simulated
// millisecond: only the apps arriving at t=0 remain, with no events,
// crashes or arrival streams. Running it costs what every run pays before
// simulation proper: process start, decode, node and manager build, and
// the t=0 admissions with their rate calibration.
func cutToFirstMS(sc *scenario.Scenario) *scenario.Scenario {
	c := *sc
	c.DurationMS = 1
	c.Apps, c.Events, c.Arrivals = nil, nil, nil
	for _, a := range sc.Apps {
		if a.StartMS == 0 {
			a.StopMS = 0
			c.Apps = append(c.Apps, a)
		}
	}
	if len(c.Apps) == 0 {
		// Validation needs an app: the first declared one, or the first
		// stream's template, moved to t=0.
		var a scenario.AppSpec
		if len(sc.Apps) > 0 {
			a = sc.Apps[0]
		} else {
			st := sc.Arrivals[0]
			a = scenario.AppSpec{
				Name: st.Name + "-0", Bench: st.Bench, Threads: st.Threads,
				TargetFrac: st.TargetFrac, Target: st.Target, HBWindow: st.HBWindow,
				InitBig: st.InitBig, InitLittle: st.InitLittle, Node: st.Node, SLO: st.SLO,
			}
		}
		a.StartMS, a.StopMS = 0, 0
		c.Apps = []scenario.AppSpec{a}
	}
	if sc.Faults != nil {
		fs := *sc.Faults
		fs.Crashes, fs.CoreFailures = nil, nil
		c.Faults = &fs
	}
	return &c
}
