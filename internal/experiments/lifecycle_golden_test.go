package experiments

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"testing"
)

// TestLifecycleGolden pins the five fleet-level sweeps at quick scale: the
// only experiments that exercise admission, work-conserving migration,
// background snapshots and crash recovery end to end. Each sweep must
// produce every row without an error note, the migration and fault
// sweeps must actually move, recover and fail transfers somewhere, and
// each rendered table must hash to its recorded digest. The digests cover
// every row's counts and per-run trace digest, so a change anywhere in the
// process lifecycle (spawn, checkpoint, snapshot, restore, recover) shows
// up here.
func TestLifecycleGolden(t *testing.T) {
	e := testEnv(t)
	type nonZero struct {
		col  int    // table column that must be > 0 in some row
		what string // its meaning, for the failure message
	}
	cases := []struct {
		name   string
		run    func(*Env) *Report
		rows   int
		notes  int // static notes only: every failed run adds one more
		active []nonZero
		digest string
	}{
		{"fleet", FleetSweep, 12, 3, []nonZero{{5, "moves"}}, "907627216ac30184"},
		{"slo", SLOSweep, 12, 3, []nonZero{{5, "moves"}}, "49faa85cdecf0478"},
		{"faults", FaultsSweep, 16, 4, []nonZero{{4, "recoveries"}, {6, "transfer failures"}}, "73859eb609aee90c"},
		{"thermal", ThermalSweep, 9, 2, nil, "10a4db542a5d4f73"},
		{"decisions", DecisionsSweep, 4, 4, nil, "5363f2102f1b9845"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep := c.run(e)
			if len(rep.Notes) != c.notes {
				t.Fatalf("%d notes, want %d (error notes?):\n%s", len(rep.Notes), c.notes, rep)
			}
			if len(rep.Table.Rows) != c.rows {
				t.Fatalf("%d rows, want %d:\n%s", len(rep.Table.Rows), c.rows, rep)
			}
			for _, nz := range c.active {
				seen := false
				for _, row := range rep.Table.Rows {
					if n, err := strconv.Atoi(row[nz.col]); err == nil && n > 0 {
						seen = true
					}
				}
				if !seen {
					t.Errorf("no row with %s > 0:\n%s", nz.what, rep)
				}
			}
			h := fnv.New64a()
			h.Write([]byte(rep.Table.String()))
			if got := fmt.Sprintf("%016x", h.Sum64()); got != c.digest {
				t.Errorf("table digest %s, want %s:\n%s", got, c.digest, rep)
			}
		})
	}
}
