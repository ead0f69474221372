package decision

import (
	"math"
	"testing"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Admit:   "admit",
		Migrate: "migrate",
		Recover: "recover",
		Gated:   "gated",
		Kind(9): "Kind(9)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", uint8(k), got, want)
		}
	}
}

func TestFormatCandidates(t *testing.T) {
	cands := []Candidate{
		{Node: "node0", Score: 1.5},
		{Node: "node1", Score: math.Inf(-1), Reason: ReasonDown},
		{Node: "node2", Score: 0},
	}
	got := FormatCandidates(cands)
	want := "node0:0x1.8p+00|node1:-Inf:down|node2:0x0p+00"
	if got != want {
		t.Fatalf("FormatCandidates = %q, want %q", got, want)
	}
	if FormatCandidates(nil) != "" {
		t.Fatalf("FormatCandidates(nil) = %q, want empty", FormatCandidates(nil))
	}
}

// Hex-float rendering must be byte-stable: the same score always renders
// the same bytes, and distinct close scores render distinctly.
func TestFormatCandidatesByteStable(t *testing.T) {
	a := []Candidate{{Node: "n", Score: 0.1}}
	b := []Candidate{{Node: "n", Score: math.Nextafter(0.1, 1)}}
	if FormatCandidates(a) != FormatCandidates(a) {
		t.Fatal("same input rendered differently")
	}
	if s1, s2 := FormatCandidates(a), FormatCandidates(b); s1 == s2 {
		t.Fatalf("adjacent floats rendered identically: %q", s1)
	}
}

func TestTeeAndSinkFunc(t *testing.T) {
	var a, b []uint64
	s := Tee(SinkFunc(func(r Record) { a = append(a, r.ID) }),
		SinkFunc(func(r Record) { b = append(b, r.ID) }))
	s.Decision(Record{ID: 1})
	s.Decision(Record{ID: 2})
	if len(a) != 2 || len(b) != 2 || a[1] != 2 || b[0] != 1 {
		t.Fatalf("tee fan-out wrong: a=%v b=%v", a, b)
	}
}

func TestLogCapAndDrop(t *testing.T) {
	l := &Log{Max: 3}
	for i := 0; i < 5; i++ {
		l.Decision(Record{ID: uint64(i)})
	}
	if got := len(l.Records()); got != 3 {
		t.Fatalf("retained %d records, want 3", got)
	}
	if l.Records()[2].ID != 2 {
		t.Fatalf("retained wrong records: %+v", l.Records())
	}
	if l.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", l.Dropped())
	}
}

func TestLogDefaultCap(t *testing.T) {
	l := &Log{}
	for i := 0; i < 100_001; i++ {
		l.Decision(Record{ID: uint64(i)})
	}
	if len(l.Records()) != 100_000 || l.Dropped() != 1 {
		t.Fatalf("default cap: retained=%d dropped=%d", len(l.Records()), l.Dropped())
	}
}

func TestQueueWaitBuckets(t *testing.T) {
	var q QueueWait
	// One observation per bucket: 0 (exact zero), 1ms, 10ms, 100ms, 1s, inf.
	for _, us := range []int64{0, 500, 5_000, 50_000, 500_000, 5_000_000} {
		q.Observe(us)
	}
	for i, c := range q.Counts {
		if c != 1 {
			t.Fatalf("bucket %d count = %d, want 1 (counts %v)", i, c, q.Counts)
		}
	}
	if q.Observations() != 6 {
		t.Fatalf("Observations = %d", q.Observations())
	}
	if q.MaxUS != 5_000_000 {
		t.Fatalf("MaxUS = %d", q.MaxUS)
	}
	if got := q.String(); got != "0:1 1ms:1 10ms:1 100ms:1 1s:1 inf:1" {
		t.Fatalf("String = %q", got)
	}

	// Bounds are inclusive: exactly 1000 µs lands in the 1ms bucket.
	var q2 QueueWait
	q2.Observe(1_000)
	q2.Observe(1_001)
	if q2.Counts[1] != 1 || q2.Counts[2] != 1 {
		t.Fatalf("boundary buckets wrong: %v", q2.Counts)
	}

	// Negative waits clamp to zero instead of corrupting the histogram.
	var q3 QueueWait
	q3.Observe(-5)
	if q3.Counts[0] != 1 || q3.TotalUS != 0 {
		t.Fatalf("negative wait not clamped: %+v", q3)
	}
}

func TestQueueWaitMean(t *testing.T) {
	var q QueueWait
	if q.MeanUS() != 0 {
		t.Fatalf("empty MeanUS = %v", q.MeanUS())
	}
	q.Observe(100)
	q.Observe(300)
	if got := q.MeanUS(); got != 200 {
		t.Fatalf("MeanUS = %v, want 200", got)
	}
}

func TestRollupMeanMargin(t *testing.T) {
	var r Rollup
	if r.MeanMargin() != 0 {
		t.Fatalf("empty MeanMargin = %v", r.MeanMargin())
	}
	r.MarginSum, r.MarginCount = 3.0, 2
	if got := r.MeanMargin(); got != 1.5 {
		t.Fatalf("MeanMargin = %v, want 1.5", got)
	}
}
