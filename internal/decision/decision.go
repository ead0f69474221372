// Package decision is the fleet scheduler's observability layer: a typed
// record of every placement decision — admission picks, migrate-pass picks
// (including moves the score gate declined), and crash re-placements — with
// the full scored candidate set, plus the always-on metric rollups
// (decision counts, score margins, queue-wait histogram) the scheduler
// surfaces through fleet.Stats.
//
// Recording is pure observation: the scheduler assigns monotonic decision
// IDs and updates the rollup whether or not a Sink is attached, and a
// Sink's presence never changes a decision. Decisions only happen inside
// fleet hook ticks, which run at the same barrier ticks under the lockstep
// and event-driven cores — so a decision stream is deterministic and
// byte-identical across both,
// and forcing a decision by ID (the counterfactual replay seam in
// fleet.Config.Force) addresses the same decision in every replay.
package decision

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/sim"
)

// Kind classifies a scheduler decision.
type Kind uint8

const (
	// Admit is an admission pick for an arriving or queued application.
	Admit Kind = iota
	// Migrate is a migrate-pass destination pick for a saturated node's
	// victim application.
	Migrate
	// Recover is an admission pick re-placing an application salvaged off
	// a node declared failed.
	Recover
	// Gated is a migrate-pass pick the destination-score gate declined:
	// the policy preferred keeping the victim where it sits, and the move
	// is recorded as an explicit no-op instead of silently skipped.
	Gated
)

// String names the decision kind.
func (k Kind) String() string {
	switch k {
	case Admit:
		return "admit"
	case Migrate:
		return "migrate"
	case Recover:
		return "recover"
	case Gated:
		return "gated"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Exclusion reasons a Candidate may carry. An empty reason means the node
// was scored and eligible; any other marks why the pick passed it over.
const (
	// ReasonSource marks the migration source node: excluded from the pick
	// by construction, but scored anyway so the record shows what the gate
	// and the counterfactual engine compared against.
	ReasonSource = "source"
	// ReasonPinned marks a node the application's pin rules out.
	ReasonPinned = "pinned"
	// ReasonDown marks a node the failure detector declares failed.
	ReasonDown = "down"
	// ReasonFull marks a node without admission capacity (no free core in
	// either partition).
	ReasonFull = "full"
	// ReasonMinFree marks a node under the migration free-core floor.
	ReasonMinFree = "min-free"
)

// Decision outcomes.
const (
	// OutcomePlaced: the admission succeeded and the app runs on Chosen.
	OutcomePlaced = "placed"
	// OutcomeMoved: the migrate-pass move succeeded.
	OutcomeMoved = "moved"
	// OutcomeHeld: the score gate declined the move (Gated decisions).
	OutcomeHeld = "held"
	// OutcomeNoCandidate: no admissible node existed; the app stays queued
	// (or the saturated node keeps its victim).
	OutcomeNoCandidate = "no-candidate"
	// OutcomeNoCapacity: the chosen node bounced the admission (capacity
	// vanished between the pick and the registration, or the machine is
	// dead); the app re-queues.
	OutcomeNoCapacity = "no-capacity"
	// OutcomeTransferFailed: the checkpoint transfer to the chosen node
	// failed transiently; the app re-queues into retry backoff.
	OutcomeTransferFailed = "transfer-failed"
)

// Candidate is one node of a decision's candidate set: its policy score,
// or the reason it was excluded (excluded nodes score -Inf, except the
// migration source, which keeps its real score for gate analysis).
type Candidate struct {
	Node   string
	Score  float64
	Reason string // "" = scored and eligible
}

// Record is one scheduler decision.
type Record struct {
	// ID is the decision's monotonic sequence number within the run,
	// assigned deterministically whether or not recording is on.
	ID uint64
	// T is the shared fleet clock at the decision.
	T sim.Time
	// Kind classifies the decision; App names the application it placed.
	Kind Kind
	App  string
	// From is the node the application currently occupies (migrate and
	// gated decisions), "" otherwise.
	From string
	// Chosen is the node the pick selected ("" when none was admissible).
	Chosen string
	// Outcome is what became of the choice (Outcome* constants).
	Outcome string
	// Margin is the winner's score lead over the runner-up, 0 unless at
	// least two eligible candidates scored finitely.
	Margin float64
	// Candidates is the full candidate set in node-index order. Nil when
	// the scheduler ran without an observer.
	Candidates []Candidate
}

// FormatCandidates renders a candidate set compactly and byte-stably:
// "node:score" per scored candidate, "node:score:reason" per excluded one,
// joined by "|". Scores render as hexadecimal floats (%x), so -Inf
// exclusions and exact ties survive a round trip through text.
func FormatCandidates(cands []Candidate) string {
	var b strings.Builder
	for i, c := range cands {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%s:%x", c.Node, c.Score)
		if c.Reason != "" {
			b.WriteByte(':')
			b.WriteString(c.Reason)
		}
	}
	return b.String()
}

// Sink consumes decision records as the scheduler makes them. Sinks run on
// the main simulation goroutine inside hook ticks; they must not mutate
// scheduler or fleet state.
type Sink interface {
	Decision(Record)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Record)

// Decision implements Sink.
func (f SinkFunc) Decision(r Record) { f(r) }

// Tee fans every record out to several sinks in order.
func Tee(sinks ...Sink) Sink {
	return SinkFunc(func(r Record) {
		for _, s := range sinks {
			s.Decision(r)
		}
	})
}

// Log is a bounded in-memory Sink: records beyond Max are counted and
// dropped, mirroring sim.Tracer's retention discipline (a backed-up queue
// can generate one failed pick per app per tick).
type Log struct {
	// Max bounds retained records; 0 selects 100,000.
	Max int

	records []Record
	dropped int64
}

// Decision implements Sink.
func (l *Log) Decision(r Record) {
	max := l.Max
	if max <= 0 {
		max = 100_000
	}
	if len(l.records) >= max {
		l.dropped++
		return
	}
	l.records = append(l.records, r)
}

// Records returns the retained records in decision order.
func (l *Log) Records() []Record { return l.records }

// Dropped returns how many records exceeded the retention cap.
func (l *Log) Dropped() int64 { return l.dropped }

// QueueWaitBoundsUS are the queue-wait histogram's inclusive upper bucket
// bounds in microseconds; a sixth bucket catches everything beyond the
// last bound. The first bucket is exact-zero: admissions that never waited.
var QueueWaitBoundsUS = [5]int64{0, 1_000, 10_000, 100_000, 1_000_000}

// QueueWaitBuckets is the number of queue-wait histogram buckets.
const QueueWaitBuckets = len(QueueWaitBoundsUS) + 1

// QueueWait is a fixed-bound histogram of admission queue latency: the
// time from an application joining the admission queue (arrival, requeue
// after a bounced move, or crash salvage) to its successful admission.
type QueueWait struct {
	Counts  [QueueWaitBuckets]int64
	TotalUS int64
	MaxUS   int64
}

// Observe folds one admission wait (µs) into the histogram.
func (q *QueueWait) Observe(us int64) {
	if us < 0 {
		us = 0
	}
	i := 0
	for i < len(QueueWaitBoundsUS) && us > QueueWaitBoundsUS[i] {
		i++
	}
	q.Counts[i]++
	q.TotalUS += us
	if us > q.MaxUS {
		q.MaxUS = us
	}
}

// Observations returns the total number of recorded waits.
func (q *QueueWait) Observations() int64 {
	var n int64
	for _, c := range q.Counts {
		n += c
	}
	return n
}

// MeanUS returns the mean wait in microseconds (0 with no observations).
func (q *QueueWait) MeanUS() float64 {
	n := q.Observations()
	if n == 0 {
		return 0
	}
	return float64(q.TotalUS) / float64(n)
}

// String renders the histogram compactly: one "bound:count" pair per
// bucket, the overflow bucket labelled "inf".
func (q *QueueWait) String() string {
	labels := [QueueWaitBuckets]string{"0", "1ms", "10ms", "100ms", "1s", "inf"}
	var b strings.Builder
	for i, c := range q.Counts {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%d", labels[i], c)
	}
	return b.String()
}

// Rollup is the always-on decision-metrics aggregate the scheduler keeps
// regardless of whether a Sink is attached, exposed as fleet.Stats.
// Decisions. Everything here is a pure function of the decision stream, so
// the rollup too is identical across the lockstep and event cores.
type Rollup struct {
	// Decisions counts decision points, i.e. the next decision ID.
	Decisions uint64
	// Admissions counts successful queue/arrival admissions (including
	// the Replacements subset); Replacements the successful re-placements
	// of crash-recovered apps; Migrations the successful migrate-pass
	// moves; GatedMigrations the moves the score gate declined;
	// NoCandidate the picks that found no admissible node.
	Admissions      int
	Replacements    int
	Migrations      int
	GatedMigrations int
	NoCandidate     int
	// MarginSum/MarginCount aggregate the winner-minus-runner-up score
	// margin over decisions with at least two finitely scored candidates.
	MarginSum   float64
	MarginCount int
	// QueueWait histograms the admission queue latency.
	QueueWait QueueWait
}

// MeanMargin returns the mean score margin (0 with no scored margins, NaN
// never).
func (r *Rollup) MeanMargin() float64 {
	if r.MarginCount == 0 {
		return 0
	}
	m := r.MarginSum / float64(r.MarginCount)
	if math.IsNaN(m) {
		return 0
	}
	return m
}
