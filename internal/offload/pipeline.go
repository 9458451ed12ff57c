// Package offload describes the MAR computation-offloading pipelines the
// paper surveys (Section III-B) and runs them over ARTP:
//
//   - LocalOnly: the whole vision pipeline runs on the device.
//   - FullOffload: every compressed frame is shipped to the surrogate.
//   - CloudRidAR: features are extracted on the device and only the
//     feature list is shipped (Huang et al., MARS'14).
//   - Glimpse: the device tracks locally and ships only trigger frames
//     (Chen et al., SenSys'15).
//
// A Runner generates frames at a fixed rate, spends the pipeline's local
// compute time, ships the offloaded frames to a surrogate as rpc calls
// over a wire.Conn on the caller's simulated path (the surrogate's compute
// is the rpc.Server's service model), and records each frame's latency
// against the application budget.
package offload

// Pipeline describes one offloading strategy for a fixed workload.
type Pipeline struct {
	Name string
	// LocalOps is the per-frame device computation (ops).
	LocalOps float64
	// RemoteOps is the per-frame surrogate computation (ops).
	RemoteOps float64
	// UploadBytes / ResultBytes per offloaded frame; an UploadBytes of 0
	// disables offloading entirely (LocalOnly).
	UploadBytes int
	ResultBytes int
	// TriggerEvery offloads only every n-th frame (Glimpse); 1 = every
	// frame; ignored when the pipeline does not offload.
	TriggerEvery int
}

// Offloads reports whether the pipeline ships anything.
func (p Pipeline) Offloads() bool { return p.UploadBytes > 0 }

// The reference vision workload, calibrated from internal/vision on a
// 320x240 synthetic frame: full recognition (detect+describe+match+RANSAC)
// is roughly 10x the cost of detection+description alone, which in turn
// dwarfs template tracking. Ops are normalized so that a smartphone
// (1e8 ops/s, see internal/device) extracts features from a frame in
// ~30 ms.
const (
	ExtractOps   = 3e6    // FAST + BRIEF on one frame
	MatchOps     = 9e6    // descriptor matching + RANSAC against a database
	TrackOps     = 4e5    // NCC template tracking
	FrameBytes   = 20_000 // compressed camera frame
	FeatureBytes = 6_000  // ~150 features x 40 wire bytes
	PoseBytes    = 400    // result: object pose + labels
)

// StandardPipelines returns the four strategies for the reference
// workload.
func StandardPipelines() []Pipeline {
	return []Pipeline{
		{Name: "LocalOnly", LocalOps: ExtractOps + MatchOps},
		{Name: "FullOffload", RemoteOps: ExtractOps + MatchOps,
			UploadBytes: FrameBytes, ResultBytes: PoseBytes, TriggerEvery: 1},
		{Name: "CloudRidAR", LocalOps: ExtractOps, RemoteOps: MatchOps,
			UploadBytes: FeatureBytes, ResultBytes: PoseBytes, TriggerEvery: 1},
		{Name: "Glimpse", LocalOps: TrackOps, RemoteOps: ExtractOps + MatchOps,
			UploadBytes: FrameBytes, ResultBytes: PoseBytes, TriggerEvery: 10},
	}
}

// Probe is the link-RTT probe of Table II: a 64-byte request the
// surrogate answers at once with 64 bytes.
var Probe = Pipeline{Name: "probe", UploadBytes: 64, ResultBytes: 64, TriggerEvery: 1}
