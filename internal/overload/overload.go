// Package overload is the server-side half of the paper's graceful
// degradation doctrine (Section VI-B, Figure 4). The transport refuses to
// queue traffic into uselessness — it sheds by priority instead of growing
// a buffer — and the serving path must do the same: an edge surrogate
// under 4x its capacity helps nobody by accepting everything and answering
// everything late (the serving-path analogue of the ~1000-packet kernel
// buffers of Section VI-H).
//
// The package provides the four mechanisms an overloaded MAR server needs:
//
//   - Admission: per-priority bounded queues (one tier per ARTP priority
//     level, Tiers of them) with queue-delay shedding by the CoDel law of
//     package queue/codel — the one each queue.FQCoDel flow runs — whose
//     drops fall on the lowest tier. Work is always dispatched highest-tier-first.
//   - Estimator: a per-method EWMA of observed service time, so the server
//     can refuse work it cannot finish inside the client's remaining
//     budget instead of discovering that after spending the cycles.
//   - Ladder: the degradation ladder — a load signal (queue delay or
//     compute backlog) mapped to a response tier: full work, a cheaper
//     features-only answer, a cached result, or an immediate reject.
//   - Gate: the assembled admission controller used by rpc.Server — it
//     tracks in-flight work, exposes a health probe (healthy / degraded /
//     draining), and implements draining: finish everything already
//     admitted while rejecting new arrivals, so servers restart cleanly
//     under load.
//
// All time-dependent logic takes an injectable clock so the decision core
// is unit-testable deterministically; the zero clock is time.Now.
package overload

// Tier is one rung of the degradation ladder: what quality of answer the
// server produces for an admitted request under its current load. It
// mirrors the MAR pipeline's natural fallbacks (full recognition ->
// match-only against client features -> replay the cached pose -> refuse).
type Tier int

// Degradation tiers, best first.
const (
	// TierFull: normal service, the complete pipeline runs.
	TierFull Tier = iota + 1
	// TierFeatures: a cheaper partial pipeline (e.g. match precomputed
	// features instead of full recognition).
	TierFeatures
	// TierCached: answer from cache with near-zero compute (e.g. the last
	// pose for this client).
	TierCached
	// TierReject: refuse immediately so the client degrades locally
	// instead of timing out.
	TierReject
)

// String implements fmt.Stringer.
func (t Tier) String() string {
	switch t {
	case TierFull:
		return "full"
	case TierFeatures:
		return "features"
	case TierCached:
		return "cached"
	case TierReject:
		return "reject"
	default:
		return "unknown-tier"
	}
}

// Probe is the health state a server advertises to clients, so failover
// steers away from a degraded or draining server before errors occur.
type Probe int

// Probe states.
const (
	// ProbeHealthy: admitting everything, queue delay at its floor.
	ProbeHealthy Probe = iota + 1
	// ProbeDegraded: admitting, but the ladder is active — answers may be
	// cheaper tiers and low-priority work is being shed.
	ProbeDegraded
	// ProbeDraining: finishing in-flight and queued work, rejecting all new
	// requests; clients should fail over now.
	ProbeDraining
)

// String implements fmt.Stringer.
func (p Probe) String() string {
	switch p {
	case ProbeHealthy:
		return "healthy"
	case ProbeDegraded:
		return "degraded"
	case ProbeDraining:
		return "draining"
	default:
		return "unknown-probe"
	}
}
