package gts

import (
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/hmp"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Calibration is one maximum-rate calibration, the offline baseline the
// paper's targets are fractions of (§5.1.1): Bench runs alone under GTS on
// the board at its maximum for Run, its heartbeat rate measured from Skip to
// the end. It names the board by content, so it is its own cache key.
type Calibration struct {
	Plat            string // PlatformKey of the board, computed once per board
	Bench           string // catalog short name (workload.ByShortExtended)
	Threads, Window int    // thread count, heartbeat window
	Run, Skip       sim.Time
}

// The process-wide calibration cache.
var (
	calibMu    sync.Mutex
	calibRates = map[Calibration]float64{}
	calibRuns  atomic.Int64
)

// PlatformKey returns a platform's canonical content: its WriteJSON bytes.
func PlatformKey(p *hmp.Platform) string {
	var b strings.Builder
	p.WriteJSON(&b) // a strings.Builder never fails a write
	return b.String()
}

// MaxRate returns the calibrated rate, running the calibration on the first
// request for c in this process. A miss runs outside the lock, so parallel
// callers never queue behind one run; racing misses compute the same
// deterministic value, and the first to finish stores it.
func (c Calibration) MaxRate() float64 {
	calibMu.Lock()
	r, ok := calibRates[c]
	calibMu.Unlock()
	if ok {
		return r
	}
	calibRuns.Add(1)
	// Callers pass the key of a validated board and a catalog benchmark, so
	// neither lookup can fail short of a bug.
	plat, _ := hmp.ReadPlatform(strings.NewReader(c.Plat))
	b, _ := workload.ByShortExtended(c.Bench)
	m := sim.New(plat, sim.Config{})
	m.SetPlacer(New(plat))
	p := m.Spawn(b.Name, b.New(c.Threads), c.Window)
	m.Run(c.Run)
	r = p.HB.RateOver(c.Skip, m.Now())
	calibMu.Lock()
	if _, ok := calibRates[c]; !ok {
		calibRates[c] = r
	}
	calibMu.Unlock()
	return r
}

// CalibrationRuns reports how many calibrations ran in this process.
func CalibrationRuns() int64 { return calibRuns.Load() }
