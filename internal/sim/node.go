package sim

import "repro/internal/hmp"

// Ticker is the single-clock advance interface of a multi-machine
// simulation: one call advances one tick. Machine and Node both implement
// it; a fleet layer advances many Tickers in lockstep so every machine of a
// multi-node run shares one deterministic clock.
type Ticker interface {
	// Step advances the simulation by one tick.
	Step()
	// Now returns the current simulated time.
	Now() Time
	// TickLen returns the tick length. Tickers sharing a clock must agree
	// on it.
	TickLen() Time
}

// Node is one machine of a multi-machine simulation: a Machine plus a fleet
// identity. The machine's power model, thermal governor, and runtime
// manager all hang off the embedded Machine (Config.Power and AddDaemon),
// so a Node is the complete bundle a fleet scheduler reasons about — it
// admits applications to a Node, migrates them between Nodes, and rolls
// their energy and heartbeat statistics up per Node.
//
// A Node adds no behaviour of its own: stepping a Node is exactly stepping
// its machine, so single-node simulations driven through the Node
// abstraction are bit-for-bit those driven on the bare machine.
type Node struct {
	// ID is the node's index within its fleet (0 for a standalone node).
	ID int
	// Name is the node's fleet-unique name, stamped onto trace events.
	Name string

	*Machine
}

// NewNode creates a named machine over its own platform description. Every
// event the machine emits is stamped with the node name, so streams merged
// after the fact — or nodes stepped by hand through one shared Tracer —
// stay attributable. A fleet requires one tracer per node (see fleet.New).
func NewNode(id int, name string, plat *hmp.Platform, cfg Config) *Node {
	n := &Node{ID: id, Name: name, Machine: New(plat, cfg)}
	n.Machine.nodeName = name
	return n
}

// SetTracer attaches a tracer to the node's machine. Machine-originated
// events carry the node name regardless; the tracer-level tag is set only
// when the tracer is not shared with another node, as a fallback for
// daemon-recorded events that do not stamp a node themselves.
func (n *Node) SetTracer(tr *Tracer) {
	if tr != nil {
		switch tr.Node {
		case "", n.Name:
			tr.Node = n.Name
		default:
			// Shared across nodes: a single tracer-level tag would
			// mislabel; rely on per-event stamps instead.
			tr.Node = ""
		}
	}
	n.Machine.SetTracer(tr)
}
