// Package experiments regenerates every table and figure of the paper's
// evaluation (Chapter 5) on the simulated platform: the single-application
// perf/watt comparisons (Figures 5.1, 5.2), the explored-space sweep
// (Figure 5.3), the multi-application comparison (Figure 5.4), the behaviour
// graphs of case 4 (Figures 5.5–5.7), the thread-assignment table
// (Table 3.1), the decision table (Table 4.3), and the power-model
// calibration of §5.1.1.
//
// Each driver returns a Report holding the same rows/series the paper plots.
// Absolute numbers differ from the paper (the substrate is a simulator, not
// the authors' board); the shapes are what the reproduction checks.
package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/gts"
	"repro/internal/heartbeat"
	"repro/internal/hmp"
	"repro/internal/oracle"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Scale selects experiment durations: Quick for tests and benchmarks, Full
// for the command-line regeneration run.
type Scale struct {
	CalibTime   sim.Time // calibration run length
	CalibSkip   sim.Time // calibration warm-up discarded before measuring
	RunTime     sim.Time // measured run length per version
	MeasureFrom sim.Time // start of the measurement window within a run

	OracleWarmup     sim.Time
	OracleMeasure    sim.Time
	OracleFreqStride int

	Profile power.ProfileConfig

	Threads  int // the paper's n parameter (total core count)
	HBWindow int
}

// Quick returns the test/benchmark scale.
func Quick() Scale {
	return Scale{
		CalibTime:   25 * sim.Second,
		CalibSkip:   12 * sim.Second,
		RunTime:     70 * sim.Second,
		MeasureFrom: 25 * sim.Second,

		OracleWarmup:     10 * sim.Second,
		OracleMeasure:    12 * sim.Second,
		OracleFreqStride: 3,

		Profile: power.ProfileConfig{
			Utils:  []float64{0.5, 1.0},
			RunPer: 600 * sim.Millisecond,
		},

		Threads:  8,
		HBWindow: 10,
	}
}

// Full returns the paper-scale configuration used by cmd/hars-experiments.
func Full() Scale {
	return Scale{
		CalibTime:   35 * sim.Second,
		CalibSkip:   12 * sim.Second,
		RunTime:     180 * sim.Second,
		MeasureFrom: 30 * sim.Second,

		OracleWarmup:     12 * sim.Second,
		OracleMeasure:    16 * sim.Second,
		OracleFreqStride: 1,

		Profile: power.ProfileConfig{},

		Threads:  8,
		HBWindow: 10,
	}
}

// Env bundles the shared fixtures of all experiments: the platform, the
// ground-truth power model (the "board"), the fitted linear power model (the
// offline calibration of §5.1.1), and the platform's content key for the
// process-wide maximum-rate calibration (gts.Calibration).
type Env struct {
	Plat  *hmp.Platform
	GT    *power.GroundTruth
	Model *power.LinearModel
	Scale Scale

	platKey string
}

// NewEnv builds an environment: it profiles the board with the
// microbenchmark sweep and fits the linear power models.
func NewEnv(scale Scale) (*Env, error) {
	plat := hmp.Default()
	gt := power.DefaultGroundTruth(plat)
	model, err := power.ProfileAndFit(plat, gt, scale.Profile)
	if err != nil {
		return nil, fmt.Errorf("experiments: power profiling: %w", err)
	}
	return &Env{
		Plat:    plat,
		GT:      gt,
		Model:   model,
		Scale:   scale,
		platKey: gts.PlatformKey(plat),
	}, nil
}

// RunResult is one measured run of one version of one workload mix.
type RunResult struct {
	Rate         float64 // heartbeats/s over the measurement window
	NormPerf     float64 // min(g, rate)/g
	PowerW       float64 // average watts over the measurement window
	PP           float64 // normalized perf per watt
	OverheadUtil float64 // runtime-manager CPU utilization (fraction)
	State        hmp.State
}

// newMachine builds a machine wired to the environment's ground truth.
func (e *Env) newMachine() *sim.Machine {
	return sim.New(e.Plat, sim.Config{Power: e.GT})
}

// MaxRate returns the maximum achievable heartbeat rate of a benchmark: the
// baseline run at maximum core count and frequency under the Linux HMP
// scheduler, calibrated once per process for the environment's scale.
func (e *Env) MaxRate(b workload.Benchmark) float64 {
	return gts.Calibration{Plat: e.platKey, Bench: b.Short, Threads: e.Scale.Threads,
		Window: e.Scale.HBWindow, Run: e.Scale.CalibTime, Skip: e.Scale.CalibSkip}.MaxRate()
}

// Target builds the paper's performance target for a benchmark: frac of the
// maximum achievable rate, ±5% of that maximum.
func (e *Env) Target(b workload.Benchmark, frac float64) heartbeat.Target {
	return heartbeat.TargetAround(e.MaxRate(b), frac, 0.05)
}

// measure runs the machine for the scale's run time and reports rate/power
// over the measurement window for the given process.
func (e *Env) measure(m *sim.Machine, p *sim.Process, tgt heartbeat.Target) RunResult {
	m.RunUntil(e.Scale.MeasureFrom)
	e0, t0 := m.EnergyJ(), m.Now()
	m.RunUntil(e.Scale.RunTime)
	dt := sim.Seconds(m.Now() - t0)
	res := RunResult{
		Rate:         p.HB.RateOver(t0, m.Now()),
		PowerW:       (m.EnergyJ() - e0) / dt,
		OverheadUtil: m.OverheadUtil(),
	}
	res.NormPerf = heartbeat.NormalizedPerf(tgt, res.Rate)
	if res.PowerW > 0 {
		res.PP = res.NormPerf / res.PowerW
	}
	return res
}

// RunBaseline runs the baseline version: maximum core count and frequency,
// scheduled by the Linux HMP scheduler.
func (e *Env) RunBaseline(b workload.Benchmark, tgt heartbeat.Target) RunResult {
	m := e.newMachine()
	m.SetPlacer(gts.New(e.Plat))
	p := m.Spawn(b.Name, b.New(e.Scale.Threads), e.Scale.HBWindow)
	res := e.measure(m, p, tgt)
	res.State = hmp.MaxState(e.Plat)
	return res
}

// RunStaticOptimal sweeps all states offline (the SO version), then runs the
// chosen state statically under the Linux HMP scheduler.
func (e *Env) RunStaticOptimal(b workload.Benchmark, tgt heartbeat.Target) RunResult {
	best := oracle.FindStatic(oracle.Options{
		Plat:       e.Plat,
		Power:      e.GT,
		NewProgram: func() sim.Program { return b.New(e.Scale.Threads) },
		Target:     tgt,
		Warmup:     e.Scale.OracleWarmup,
		Measure:    e.Scale.OracleMeasure,
		FreqStride: e.Scale.OracleFreqStride,
		Parallel:   true,
	})
	m := e.newMachine()
	m.SetLevel(hmp.Big, best.State.BigLevel)
	m.SetLevel(hmp.Little, best.State.LittleLevel)
	g := gts.New(e.Plat)
	g.SetAllowed(stateCpuset(e.Plat, best.State))
	m.SetPlacer(g)
	p := m.Spawn(b.Name, b.New(e.Scale.Threads), e.Scale.HBWindow)
	res := e.measure(m, p, tgt)
	res.State = best.State
	return res
}

// RunHARS runs one of the HARS versions with optional manager overrides.
func (e *Env) RunHARS(b workload.Benchmark, tgt heartbeat.Target, cfg core.Config) RunResult {
	res, _ := e.RunHARSTraced(b, tgt, cfg)
	return res
}

// RunHARSTraced is RunHARS plus the manager's adaptation-decision trace.
func (e *Env) RunHARSTraced(b workload.Benchmark, tgt heartbeat.Target, cfg core.Config) (RunResult, []core.Decision) {
	m := e.newMachine()
	p := m.Spawn(b.Name, b.New(e.Scale.Threads), e.Scale.HBWindow)
	mgr := core.NewManager(m, p, e.Model, tgt, cfg)
	m.AddDaemon(mgr)
	res := e.measure(m, p, tgt)
	res.State = mgr.State()
	return res, mgr.Decisions()
}

func stateCpuset(p *hmp.Platform, st hmp.State) hmp.CPUMask {
	var mask hmp.CPUMask
	for i := 0; i < st.LittleCores; i++ {
		mask = mask.Set(p.CPU(hmp.Little, i))
	}
	for i := 0; i < st.BigCores; i++ {
		mask = mask.Set(p.CPU(hmp.Big, i))
	}
	if mask == 0 {
		mask = hmp.AllCPUs(p)
	}
	return mask
}

// parallelFor runs fn(i) for i in [0, n) across workers, preserving result
// order determinism (each fn writes only its own slot).
func parallelFor(n int, fn func(i int)) {
	workers := runtime.NumCPU()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// Report is the renderable outcome of one experiment.
type Report struct {
	Title  string
	Table  stats.Table
	Series []*stats.Series
	Charts []string
	Notes  []string
}

// String renders the report for the terminal.
func (r *Report) String() string {
	out := fmt.Sprintf("== %s ==\n", r.Title)
	if len(r.Table.Header) > 0 {
		out += r.Table.String()
	}
	for _, c := range r.Charts {
		out += c
	}
	for _, n := range r.Notes {
		out += "note: " + n + "\n"
	}
	return out
}
