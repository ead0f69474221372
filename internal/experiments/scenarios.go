package experiments

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/workload"
)

// ScenarioSweep runs a bank of seeded random dynamic-event scenarios — apps
// arriving and departing, cores hotplugging, clusters getting thermally
// capped, targets and workload phases shifting — through the HARS and
// MP-HARS managers on the parallel experiments engine, reporting each run's
// outcome and determinism digest. The digests make regressions in the
// dynamic reaction paths visible as a diff, the way the golden digests pin
// the static path.
func ScenarioSweep(e *Env) *Report {
	rep := &Report{Title: "Scenario sweep: seeded dynamic-event runs (arrival/departure, hotplug, DVFS caps, target & phase shifts)"}
	rep.Table.Header = []string{"scenario", "manager", "apps", "events", "beats", "energy (J)", "overhead", "digest"}

	type row struct {
		sc  *scenario.Scenario
		res *scenario.Result
		err error
	}
	managers := []string{
		scenario.ManagerHARSI, scenario.ManagerHARSE,
		scenario.ManagerMPHARSI, scenario.ManagerMPHARSE,
	}
	rows := make([]row, 0, 2*len(managers))
	for i, mgr := range managers {
		for _, seed := range []int64{int64(i) + 1, int64(i) + 101} {
			rows = append(rows, row{sc: scenario.Generate(seed, scenario.GenConfig{
				Manager:    mgr,
				DurationMS: 10000,
				Events:     6,
			})})
		}
	}
	parallelFor(len(rows), func(i int) {
		rows[i].res, rows[i].err = scenario.Run(rows[i].sc, scenario.Options{
			Strict: true,
			MaxRate: func(short string, threads int) float64 {
				// Reuse the environment's calibration (the process-wide
				// GTS calibration at the scale's thread count and run length).
				b, _ := workload.ByShort(short)
				return e.MaxRate(b)
			},
		})
	})
	for _, r := range rows {
		if r.err != nil {
			rep.Notes = append(rep.Notes, fmt.Sprintf("%s (%s): %v", r.sc.Name, r.sc.Manager, r.err))
			continue
		}
		beats := int64(0)
		for _, a := range r.res.Apps {
			beats += a.Beats
		}
		rep.Table.AddRow(
			r.sc.Name, r.sc.Manager,
			fmt.Sprint(len(r.sc.Apps)), fmt.Sprint(len(r.sc.Events)),
			fmt.Sprint(beats),
			fmt.Sprintf("%.1f", r.res.EnergyJ),
			fmt.Sprintf("%.2f%%", 100*r.res.Machine.OverheadUtil()),
			fmt.Sprintf("%016x", r.res.TraceDigest),
		)
	}
	rep.Notes = append(rep.Notes,
		"digests are FNV-64a over the full per-sample trace; identical runs ⇒ identical digests")
	return rep
}
