package experiments

import (
	"reflect"
	"testing"
)

// TestEngineDeterminism runs a set of drivers serially and through the
// parallel worker pool against equivalent environments and requires the
// reports to be deeply identical: the engine may only change wall-clock
// time, never results. Cheap drivers keep the test fast; every driver goes
// through the same Env surface (machines per run, the process-wide MaxRate
// calibration), so the property generalizes.
func TestEngineDeterminism(t *testing.T) {
	drivers := []Driver{
		{"table3.1", Table31},
		{"table4.3", Table43},
		{"fig5.1-sub", func(e *Env) *Report {
			return singleAppReport(e, SingleAppOptions{TargetFrac: 0.50, Benchmarks: []string{"SW", "BL"}}, "sub")
		}},
		{"scenarios", ScenarioSweep},
	}
	envA, err := NewEnv(Quick())
	if err != nil {
		t.Fatal(err)
	}
	envB, err := NewEnv(Quick())
	if err != nil {
		t.Fatal(err)
	}

	serialOrder := make([]string, 0, len(drivers))
	serial := RunDrivers(envA, drivers, 1, func(o Outcome) {
		serialOrder = append(serialOrder, o.Name)
	})
	// An explicit width > 1 exercises the real worker pool even on a
	// single-CPU machine (0 would degrade to the serial path there).
	parallelOrder := make([]string, 0, len(drivers))
	parallel := RunDrivers(envB, drivers, 3, func(o Outcome) {
		parallelOrder = append(parallelOrder, o.Name)
	})

	if !reflect.DeepEqual(serialOrder, parallelOrder) {
		t.Fatalf("onDone order differs: serial %v, parallel %v", serialOrder, parallelOrder)
	}
	for i := range drivers {
		if serial[i].Name != parallel[i].Name {
			t.Fatalf("outcome %d name: %q vs %q", i, serial[i].Name, parallel[i].Name)
		}
		if !reflect.DeepEqual(serial[i].Report, parallel[i].Report) {
			t.Errorf("driver %s: report differs between serial and parallel engine:\nserial: %s\nparallel: %s",
				serial[i].Name, serial[i].Report.String(), parallel[i].Report.String())
		}
	}
}

// TestSelectDrivers covers the registry filter.
func TestSelectDrivers(t *testing.T) {
	all, err := SelectDrivers("all")
	if err != nil || len(all) != 18 {
		t.Fatalf("all: %d drivers, err %v", len(all), err)
	}
	one, err := SelectDrivers("fig5.3")
	if err != nil || len(one) != 1 || one[0].Name != "fig5.3" {
		t.Fatalf("fig5.3: %v, err %v", one, err)
	}
	if _, err := SelectDrivers("nope"); err == nil {
		t.Fatal("unknown driver accepted")
	}
}
