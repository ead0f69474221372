package repro

import (
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/hmp"
	"repro/internal/power"
)

// The figure benchmarks regenerate the paper's experiments at the Quick
// scale; run `cmd/hars-experiments -scale full` for the paper-scale rows.

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
	benchEnvErr  error
)

func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		benchEnv, benchEnvErr = experiments.NewEnv(experiments.Quick())
	})
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	return benchEnv
}

// BenchmarkTable31 regenerates the thread-assignment table (Table 3.1).
func BenchmarkTable31(b *testing.B) {
	e := env(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if rep := experiments.Table31(e); len(rep.Table.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable43 regenerates the state & freeze decision table (Table 4.3).
func BenchmarkTable43(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if rep := experiments.Table43(nil); len(rep.Table.Rows) != 18 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkPowerProfile regenerates the power-model calibration (§5.1.1).
func BenchmarkPowerProfile(b *testing.B) {
	plat := hmp.Default()
	gt := power.DefaultGroundTruth(plat)
	cfg := experiments.Quick().Profile
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := power.ProfileAndFit(plat, gt, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig51 regenerates Figure 5.1 (perf/watt, default target).
func BenchmarkFig51(b *testing.B) {
	e := env(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if rep := experiments.Fig51(e); len(rep.Table.Rows) != 7 {
			b.Fatalf("rows = %d", len(rep.Table.Rows))
		}
	}
}

// BenchmarkFig52 regenerates Figure 5.2 (perf/watt, high target).
func BenchmarkFig52(b *testing.B) {
	e := env(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if rep := experiments.Fig52(e); len(rep.Table.Rows) != 7 {
			b.Fatalf("rows = %d", len(rep.Table.Rows))
		}
	}
}

// BenchmarkFig53 regenerates Figure 5.3 (efficiency & overhead vs d).
func BenchmarkFig53(b *testing.B) {
	e := env(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if rep := experiments.Fig53(e); len(rep.Series) != 4 {
			b.Fatal("bad series")
		}
	}
}

// BenchmarkFig54 regenerates Figure 5.4 (multi-application perf/watt).
func BenchmarkFig54(b *testing.B) {
	e := env(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if rep := experiments.Fig54(e); len(rep.Table.Rows) != 7 {
			b.Fatalf("rows = %d", len(rep.Table.Rows))
		}
	}
}

// BenchmarkFig55 regenerates Figure 5.5 (case 4 behaviour, CONS-I).
func BenchmarkFig55(b *testing.B) {
	e := env(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if rep := experiments.Fig55(e); len(rep.Series) == 0 {
			b.Fatal("no series")
		}
	}
}

// BenchmarkFig56 regenerates Figure 5.6 (case 4 behaviour, MP-HARS-I).
func BenchmarkFig56(b *testing.B) {
	e := env(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if rep := experiments.Fig56(e); len(rep.Series) == 0 {
			b.Fatal("no series")
		}
	}
}

// BenchmarkFig57 regenerates Figure 5.7 (case 4 behaviour, MP-HARS-E).
func BenchmarkFig57(b *testing.B) {
	e := env(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if rep := experiments.Fig57(e); len(rep.Series) == 0 {
			b.Fatal("no series")
		}
	}
}

// BenchmarkAblations regenerates the §3.1.4 extension ablation study.
func BenchmarkAblations(b *testing.B) {
	e := env(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if rep := experiments.Ablations(e); len(rep.Table.Rows) != 9 {
			b.Fatalf("rows = %d", len(rep.Table.Rows))
		}
	}
}

// BenchmarkExtendedSuite runs the beyond-paper ten-benchmark suite.
func BenchmarkExtendedSuite(b *testing.B) {
	e := env(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if rep := experiments.ExtendedSuite(e); len(rep.Table.Rows) != 11 {
			b.Fatalf("rows = %d", len(rep.Table.Rows))
		}
	}
}

// BenchmarkSearchExhaustive measures one exhaustive GetNextSysState sweep
// (m = n = 4, d = 7), the per-adaptation cost of HARS-E.
func BenchmarkSearchExhaustive(b *testing.B) { bench.SearchExhaustive(b) }

// BenchmarkAssign measures the Table 3.1 assignment computation.
func BenchmarkAssign(b *testing.B) { bench.Assign(b) }

// BenchmarkSimSecond measures simulating one second (1000 ticks) of an
// 8-thread data-parallel workload on the default machine.
func BenchmarkSimSecond(b *testing.B) { bench.SimSecond(b) }

// BenchmarkSimSecondPipeline is the pipeline-workload variant: heavy
// block/unblock churn, the incremental run queues' worst case.
func BenchmarkSimSecondPipeline(b *testing.B) { bench.SimSecondPipeline(b) }

// BenchmarkSimSecondThermal is SimSecond with the closed thermal loop (RC
// model + governor daemon) attached; the delta against SimSecond is the
// per-tick cost of the loop.
func BenchmarkSimSecondThermal(b *testing.B) { bench.SimSecondThermal(b) }

// BenchmarkFleetQuiescent advances ten simulated seconds of a mostly-idle
// 128-node fleet through the event-driven core; the Lockstep variant is the
// per-tick reference, and their ratio is the tracked quiescent speedup.
func BenchmarkFleetQuiescent(b *testing.B) { bench.FleetQuiescent(b) }

// BenchmarkFleetQuiescentLockstep is the same fleet stepped tick by tick.
func BenchmarkFleetQuiescentLockstep(b *testing.B) { bench.FleetQuiescentLockstep(b) }

// BenchmarkFleetScale1k advances ten simulated seconds of a 1024-node fleet
// with a single busy node through the event-driven core — the thousand-node
// scale target.
func BenchmarkFleetScale1k(b *testing.B) { bench.FleetScale1k(b) }

// BenchmarkFleetScale1kActive loads ~5% of the 1024 nodes.
func BenchmarkFleetScale1kActive(b *testing.B) { bench.FleetScale1kActive(b) }

// BenchmarkFleetScale1kFaults crashes and heals a band of idle nodes
// mid-run with the failure detector armed — the scheduler's detector,
// recovery and wake scan on the measured path.
func BenchmarkFleetScale1kFaults(b *testing.B) { bench.FleetScale1kFaults(b) }

// BenchmarkFleetScale1kLockstep is the 1024-node fleet stepped tick by
// tick, the denominator of the tracked scale speedup.
func BenchmarkFleetScale1kLockstep(b *testing.B) { bench.FleetScale1kLockstep(b) }

// BenchmarkFleetScale1kSteady is the managed-busy 1024-node fleet with the
// steady-phase turbo path on; the SteadyOff variant runs the identical
// fleet through the general per-tick loop, and their ratio is the tracked
// steady speedup.
func BenchmarkFleetScale1kSteady(b *testing.B) { bench.FleetScale1kSteady(b) }

// BenchmarkFleetScale1kSteadyOff is the steady benchmark's general-loop
// twin.
func BenchmarkFleetScale1kSteadyOff(b *testing.B) { bench.FleetScale1kSteadyOff(b) }
