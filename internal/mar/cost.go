package mar

import (
	"errors"
	"time"
)

// ErrBadSplit is returned for split/storage fractions outside [0, 1].
var ErrBadSplit = errors.New("mar: split fraction outside [0,1]")

// App describes a MAR application "a" with the Section III notation:
// frame rate f(a), per-frame processing requirement p(a), external database
// access rate d(a) and virtual-object size o(a).
type App struct {
	FPS         float64 // f(a): frames generated per second
	OpsPerFrame float64 // p(a): processing per frame, in normalized compute ops
	DBRate      float64 // d(a): external database requests per second
	ObjBytes    float64 // o(a): virtual object size per request, bytes
}

// Deadline returns δa, the in-time execution constraint — the paper treats
// 1/δa as the minimum frame generation rate, so δa = 1/f.
func (a App) Deadline() time.Duration {
	if a.FPS <= 0 {
		return 0
	}
	return time.Duration(float64(time.Second) / a.FPS)
}

// Link is the n_mc link between mobile device and cloud surrogate with
// bandwidth b_mc and one-way latency l_mc.
type Link struct {
	UpBps   float64
	DownBps float64
	OneWay  time.Duration
}

// PLocal is Equation 1: the per-frame execution delay of running the whole
// pipeline on the device with compute capacity Rm (ops/s).
func PLocal(a App, rm float64) time.Duration {
	if rm <= 0 {
		return 1 << 62
	}
	return time.Duration(a.OpsPerFrame / rm * float64(time.Second))
}

// PLocalExternalDB extends PLocal with remote database accesses: a fraction
// x of the virtual objects is cached locally, the rest is fetched over the
// link (download of o bytes plus one round trip), amortized per frame.
func PLocalExternalDB(a App, rm float64, link Link, x float64) (time.Duration, error) {
	if x < 0 || x > 1 {
		return 0, ErrBadSplit
	}
	base := PLocal(a, rm)
	if a.FPS <= 0 || a.DBRate <= 0 {
		return base, nil
	}
	missPerFrame := a.DBRate / a.FPS * (1 - x)
	var fetch time.Duration
	if link.DownBps > 0 {
		fetch = time.Duration(a.ObjBytes * 8 / link.DownBps * float64(time.Second))
	}
	rtt := 2 * link.OneWay
	return base + time.Duration(missPerFrame*float64(fetch+rtt)), nil
}

// OffloadParams carries the knobs of P_offloading: x is the computation
// split (fraction of p(a) executed locally), y the fraction of the database
// co-located with the compute surrogate, UploadBytes the per-frame data
// shipped to the surrogate, and ResultBytes the per-frame result returned.
type OffloadParams struct {
	Rm, Rc      float64 // device and surrogate compute, ops/s
	Link        Link
	X           float64 // computation split: fraction executed locally
	Y           float64 // database co-location: fraction on the same surrogate
	UploadBytes float64 // per-frame bytes shipped up (frame, features, ...)
	ResultBytes float64 // per-frame bytes shipped back
	// DBLink is the extra link to the second surrogate holding the
	// remainder of the database (used when Y < 1).
	DBLink Link
}

// POffload evaluates the offloaded per-frame delay: local share, remote
// share, the uplink/downlink transfer of inputs and results, one round
// trip, and — when the data is not co-located (y < 1) — an extra fetch to
// the second server, which is how the paper explains P_offloading
// increasing when data and compute live on different surrogates.
func POffload(a App, p OffloadParams) (time.Duration, error) {
	if p.X < 0 || p.X > 1 || p.Y < 0 || p.Y > 1 {
		return 0, ErrBadSplit
	}
	if p.Rm <= 0 || p.Rc <= 0 {
		return 1 << 62, nil
	}
	local := time.Duration(a.OpsPerFrame * p.X / p.Rm * float64(time.Second))
	remote := time.Duration(a.OpsPerFrame * (1 - p.X) / p.Rc * float64(time.Second))
	var up, down time.Duration
	if p.Link.UpBps > 0 {
		up = time.Duration(p.UploadBytes * 8 / p.Link.UpBps * float64(time.Second))
	}
	if p.Link.DownBps > 0 {
		down = time.Duration(p.ResultBytes * 8 / p.Link.DownBps * float64(time.Second))
	}
	total := local + remote + up + down + 2*p.Link.OneWay

	if p.Y < 1 && a.DBRate > 0 && a.FPS > 0 {
		missPerFrame := a.DBRate / a.FPS * (1 - p.Y)
		var fetch time.Duration
		if p.DBLink.DownBps > 0 {
			fetch = time.Duration(a.ObjBytes * 8 / p.DBLink.DownBps * float64(time.Second))
		}
		total += time.Duration(missPerFrame * float64(fetch+2*p.DBLink.OneWay))
	}
	return total, nil
}

// BestStrategy compares local, local+DB and offloaded execution for the app
// and returns the name of the fastest strategy and its delay. It is the
// decision rule an offloading runtime applies per device class.
func BestStrategy(a App, rm float64, off OffloadParams, cacheFrac float64) (string, time.Duration, error) {
	local := PLocal(a, rm)
	withDB, err := PLocalExternalDB(a, rm, off.Link, cacheFrac)
	if err != nil {
		return "", 0, err
	}
	offloaded, err := POffload(a, off)
	if err != nil {
		return "", 0, err
	}
	best, name := local, "local"
	if a.DBRate > 0 && withDB < best {
		best, name = withDB, "local+externalDB"
	}
	if offloaded < best {
		best, name = offloaded, "offload"
	}
	return name, best, nil
}
