package mar

import (
	"fmt"
	"time"

	"marnet/internal/core"
	"marnet/internal/marsim"
	"marnet/internal/simnet"
	"marnet/internal/wire"
)

// MTU-ish chunk for application datagrams handed to ARTP.
const chunkBytes = 1200

// VideoConfig describes a GOP-structured encoded camera stream.
type VideoConfig struct {
	FPS     int
	GOP     int     // frames per group-of-pictures (1 reference + GOP-1 inter)
	Bitrate float64 // target bits/s at full quality
	// IFrameWeight is the size of a reference frame relative to an
	// interframe (default 4).
	IFrameWeight float64
	// Deadline is the per-frame latency budget (default 75 ms, the paper's
	// bound).
	Deadline time.Duration
}

// VideoSource generates the two video substreams of the Figure 4 scenario:
// reference frames (best effort with loss recovery, highest priority) and
// interframes (full best effort, lowest priority — "our main adjustable
// variable"). QoS feedback from ARTP adjusts the encode quality of each
// substream independently.
type VideoSource struct {
	cfg  VideoConfig
	sim  *simnet.Sim
	conn *wire.Conn

	// Ref and Inter are the substreams to declare on the sending conn.
	Ref, Inter wire.StreamSpec

	refQuality   float64
	interQuality float64
	frame        int64
}

// NewVideoSource declares the two substreams, reference frames on stream
// ref and interframes on ref+1.
func NewVideoSource(sim *simnet.Sim, ref uint16, cfg VideoConfig) (*VideoSource, error) {
	if cfg.FPS <= 0 || cfg.GOP <= 0 || cfg.Bitrate <= 0 {
		return nil, fmt.Errorf("mar: invalid video config %+v", cfg)
	}
	if cfg.IFrameWeight <= 0 {
		cfg.IFrameWeight = 4
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = MaxTolerableRTT
	}
	v := &VideoSource{cfg: cfg, sim: sim, refQuality: 1, interQuality: 1}
	refShare, interShare := v.rateShares()
	v.Ref = wire.StreamSpec{
		ID:       ref,
		Class:    core.ClassLossRecovery,
		Priority: core.PrioHighest,
		Rate:     refShare,
		Deadline: cfg.Deadline,
		OnAllocate: func(r float64) {
			v.refQuality = clamp01(r / refShare)
		},
	}
	v.Inter = wire.StreamSpec{
		ID:       ref + 1,
		Class:    core.ClassFullBestEffort,
		Priority: core.PrioLowest,
		Rate:     interShare,
		Deadline: cfg.Deadline,
		OnAllocate: func(r float64) {
			v.interQuality = clamp01(r / interShare)
		},
	}
	return v, nil
}

// rateShares splits the target bitrate between reference and inter frames
// according to the GOP structure.
func (v *VideoSource) rateShares() (ref, inter float64) {
	w := v.cfg.IFrameWeight
	g := float64(v.cfg.GOP)
	refFrac := w / (w + g - 1)
	return v.cfg.Bitrate * refFrac, v.cfg.Bitrate * (1 - refFrac)
}

// FrameSizes returns the full-quality reference and inter frame sizes in
// bytes.
func (v *VideoSource) FrameSizes() (refBytes, interBytes int) {
	perFrame := v.cfg.Bitrate / 8 / float64(v.cfg.FPS)
	g := float64(v.cfg.GOP)
	w := v.cfg.IFrameWeight
	p := g * perFrame / (w + g - 1)
	return int(w * p), int(p)
}

// Quality reports the current encode quality factors in [0,1].
func (v *VideoSource) Quality() (ref, inter float64) { return v.refQuality, v.interQuality }

// Start schedules frame generation on conn until the given sim-time
// horizon.
func (v *VideoSource) Start(conn *wire.Conn, until time.Duration) {
	v.conn = conn
	period := time.Second / time.Duration(v.cfg.FPS)
	var tick func()
	tick = func() {
		v.emitFrame()
		if v.sim.Now()+period <= until {
			v.sim.Schedule(period, tick)
		}
	}
	v.sim.Schedule(0, tick)
}

func (v *VideoSource) emitFrame() {
	refSize, interSize := v.FrameSizes()
	isRef := v.frame%int64(v.cfg.GOP) == 0
	v.frame++
	stream, size := v.Inter.ID, int(float64(interSize)*v.interQuality)
	if isRef {
		stream, size = v.Ref.ID, int(float64(refSize)*v.refQuality)
	}
	if size <= 0 {
		return // quality floored: frame skipped entirely
	}
	for size > 0 {
		n := min(size, chunkBytes)
		marsim.Send(v.sim, v.conn, stream, n)
		size -= n
	}
}

// SensorConfig describes the aggregated sensor feed (IMU, GPS, etc.).
type SensorConfig struct {
	SampleBytes int
	SamplesPerS float64
	// Priority defaults to PrioNoDiscard (the paper's "Medium priority 1"
	// for sensor data).
	Priority core.Priority
}

// SensorSource submits periodic sensor samples on a full-best-effort
// stream, adapting its sampling rate to QoS feedback ("they can be used as
// an adjustable variable").
type SensorSource struct {
	cfg  SensorConfig
	sim  *simnet.Sim
	conn *wire.Conn
	// Spec is the stream to declare on the sending conn.
	Spec wire.StreamSpec

	rateScale float64
}

// NewSensorSource declares the sensor stream with the given id.
func NewSensorSource(sim *simnet.Sim, id uint16, cfg SensorConfig) (*SensorSource, error) {
	if cfg.SampleBytes <= 0 || cfg.SamplesPerS <= 0 {
		return nil, fmt.Errorf("mar: invalid sensor config %+v", cfg)
	}
	if cfg.Priority == 0 {
		cfg.Priority = core.PrioNoDiscard
	}
	s := &SensorSource{cfg: cfg, sim: sim, rateScale: 1}
	rate := float64(cfg.SampleBytes*8) * cfg.SamplesPerS
	s.Spec = wire.StreamSpec{
		ID:       id,
		Class:    core.ClassFullBestEffort,
		Priority: cfg.Priority,
		Rate:     rate,
		OnAllocate: func(r float64) {
			s.rateScale = clamp01(r / rate)
		},
	}
	return s, nil
}

// RateScale reports the current sampling-rate scale in [0,1].
func (s *SensorSource) RateScale() float64 { return s.rateScale }

// Start schedules sampling on conn until the horizon. The sampler
// decimates: at scale q it emits every sample with probability
// proportional to q by skipping deterministically.
func (s *SensorSource) Start(conn *wire.Conn, until time.Duration) {
	s.conn = conn
	period := time.Duration(float64(time.Second) / s.cfg.SamplesPerS)
	var acc float64
	var tick func()
	tick = func() {
		acc += s.rateScale
		if acc >= 1 {
			acc -= 1
			marsim.Send(s.sim, s.conn, s.Spec.ID, s.cfg.SampleBytes)
		}
		if s.sim.Now()+period <= until {
			s.sim.Schedule(period, tick)
		}
	}
	s.sim.Schedule(0, tick)
}

// MetadataConfig describes the constant connection-metadata stream.
type MetadataConfig struct {
	Bytes    int
	Interval time.Duration
}

// MetadataSource submits constant-rate critical connection metadata
// ("should not be lost or delayed ... critical data with highest
// priority").
type MetadataSource struct {
	cfg  MetadataConfig
	sim  *simnet.Sim
	conn *wire.Conn
	// Spec is the stream to declare on the sending conn.
	Spec wire.StreamSpec

	Generated int64
}

// NewMetadataSource declares the metadata stream with the given id.
func NewMetadataSource(sim *simnet.Sim, id uint16, cfg MetadataConfig) (*MetadataSource, error) {
	if cfg.Bytes <= 0 || cfg.Interval <= 0 {
		return nil, fmt.Errorf("mar: invalid metadata config %+v", cfg)
	}
	return &MetadataSource{cfg: cfg, sim: sim, Spec: wire.StreamSpec{
		ID:       id,
		Class:    core.ClassCritical,
		Priority: core.PrioHighest,
		Rate:     float64(cfg.Bytes*8) / cfg.Interval.Seconds(),
	}}, nil
}

// Start schedules metadata emission on conn until the horizon.
func (m *MetadataSource) Start(conn *wire.Conn, until time.Duration) {
	m.conn = conn
	var tick func()
	tick = func() {
		m.Generated++
		marsim.Send(m.sim, m.conn, m.Spec.ID, m.cfg.Bytes)
		if m.sim.Now()+m.cfg.Interval <= until {
			m.sim.Schedule(m.cfg.Interval, tick)
		}
	}
	m.sim.Schedule(0, tick)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
