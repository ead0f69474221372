package gts

import (
	"math"
	"sync"
	"testing"

	"repro/internal/hmp"
	"repro/internal/sim"
)

// TestCalibrationConcurrent has goroutines request one calibration key at
// once: racing misses may each run it, but every caller gets the same bits,
// and so does a later cached lookup.
func TestCalibrationConcurrent(t *testing.T) {
	plat := hmp.Default()
	plat.Clusters[hmp.Little].Name = "Cortex-A7 concurrent"
	c := Calibration{Plat: PlatformKey(plat), Bench: "SW", Threads: 8,
		Window: 10, Run: 5 * sim.Second, Skip: 2 * sim.Second}
	got := make([]float64, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = c.MaxRate()
		}()
	}
	wg.Wait()
	before := CalibrationRuns()
	want := c.MaxRate()
	if CalibrationRuns() != before {
		t.Fatal("a cached key ran its calibration again")
	}
	if want <= 0 {
		t.Fatalf("calibrated rate %v", want)
	}
	for i, r := range got {
		if math.Float64bits(r) != math.Float64bits(want) {
			t.Errorf("goroutine %d: %v, cached %v", i, r, want)
		}
	}
}
