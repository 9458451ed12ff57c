// Package core is the vocabulary of ARTP, the AR-oriented transport
// protocol whose design Section VI of the paper lays out:
//
//   - Classful traffic (Section VI-A): three baseline traffic classes with
//     different reliability semantics — full best effort, best effort with
//     loss recovery, and critical (reliable) data.
//   - Four priority levels used for graceful degradation: in congestion the
//     protocol sheds or delays low-priority traffic instead of shrinking a
//     congestion window (Section VI-B, Figure 4).
//   - A delay-reactive congestion controller that treats rising delay and
//     jitter as congestion signals (Section VI-B).
//   - The receive-side sequence window every stream keeps.
//
// The protocol has one engine, package wire: wire.Conn runs the classes,
// priorities, controller, budget-bounded loss recovery (Section VI-C) and
// QoS feedback over any datagram transport — UDP sockets, or the simulator
// through internal/marsim — and, dialled over several paths
// (wire.DialPaths), multipath scheduling, probing failover and cross-path
// FEC (Section VI-D). The tests of this
// package hold that engine to each class's delivery contract.
package core

// Class is an ARTP traffic class (Section VI-A).
type Class int

// Traffic classes.
const (
	// ClassFullBestEffort: latency matters most; new data is preferred to
	// loss recovery (sensor streams, video interframes).
	ClassFullBestEffort Class = iota + 1
	// ClassLossRecovery: latency-sensitive but valuable data that should be
	// repaired when affordable (video reference frames).
	ClassLossRecovery
	// ClassCritical: reliable in-order delivery is preferable to latency
	// (connection metadata).
	ClassCritical
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassFullBestEffort:
		return "full-best-effort"
	case ClassLossRecovery:
		return "best-effort+recovery"
	case ClassCritical:
		return "critical"
	default:
		return "unknown-class"
	}
}

// Priority is an ARTP priority level (Section VI-A). Lower value = more
// important.
type Priority int

// Priority levels, in the paper's order.
const (
	// PrioHighest: never discarded, never delayed.
	PrioHighest Priority = iota + 1
	// PrioNoDiscard ("Medium priority 1"): may be delayed, never discarded.
	PrioNoDiscard
	// PrioNoDelay ("Medium priority 2"): may be discarded, never delayed —
	// fresh data replaces stale data.
	PrioNoDelay
	// PrioLowest: freely discarded under congestion.
	PrioLowest
)

// String implements fmt.Stringer.
func (p Priority) String() string {
	switch p {
	case PrioHighest:
		return "highest"
	case PrioNoDiscard:
		return "no-discard"
	case PrioNoDelay:
		return "no-delay"
	case PrioLowest:
		return "lowest"
	default:
		return "unknown-priority"
	}
}

// Discardable reports whether traffic at this priority may be dropped under
// congestion rather than queued.
func (p Priority) Discardable() bool {
	return p == PrioNoDelay || p == PrioLowest
}

// Band maps the priority to a strict-priority queue band (0 = served
// first).
func (p Priority) Band() int { return int(p) - 1 }

// AdmissionTiers is the number of server-side admission tiers: one per ARTP
// priority level. A server protecting itself from overload (package
// overload) queues and sheds by the same four classes the transport uses
// for graceful degradation — the serving path and the sending path degrade
// along the same axis.
const AdmissionTiers = 4

// AdmissionTier maps the priority to a server admission tier (0 = most
// protected, AdmissionTiers-1 = shed first). Out-of-range values — e.g. a
// zero Priority from a peer that predates priority propagation — land in
// the lowest tier rather than the most protected one.
func (p Priority) AdmissionTier() int {
	t := int(p) - 1
	if t < 0 || t >= AdmissionTiers {
		return AdmissionTiers - 1
	}
	return t
}
