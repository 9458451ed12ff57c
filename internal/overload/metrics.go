package overload

import (
	"strconv"

	"marnet/internal/obs"
)

// PublishMetrics registers the gate's admission counters with an
// observability registry as live read-through functions: every scrape
// reports exactly what Stats would return at that instant. Per-tier
// admission counters get a tier="<n>" label (0 = most protected) on top
// of the caller's labels.
func (g *Gate) PublishMetrics(reg *obs.Registry, labels ...obs.Label) {
	if reg == nil {
		return
	}
	for _, m := range []struct {
		name string
		get  func(GateStats) int64
	}{
		{"mar_gate_admitted_total", func(s GateStats) int64 { return s.Admitted }},
		{"mar_gate_completed_total", func(s GateStats) int64 { return s.Completed }},
		{"mar_gate_degraded_total", func(s GateStats) int64 { return s.Degraded }},
		{"mar_gate_expired_on_arrival_total", func(s GateStats) int64 { return s.ExpiredOnArrival }},
		{"mar_gate_expired_in_queue_total", func(s GateStats) int64 { return s.ExpiredInQueue }},
		{"mar_gate_cannot_finish_total", func(s GateStats) int64 { return s.CannotFinish }},
		{"mar_gate_rejected_draining_total", func(s GateStats) int64 { return s.RejectedDraining }},
		{"mar_gate_ladder_rejected_total", func(s GateStats) int64 { return s.LadderRejected }},
	} {
		get := m.get
		reg.CounterFunc(m.name, func() int64 { return get(g.Stats()) }, labels...)
	}
	reg.GaugeFunc("mar_gate_queue_delay_seconds", func() float64 {
		return g.QueueDelay().Seconds()
	}, labels...)
	reg.GaugeFunc("mar_gate_health", func() float64 {
		return float64(g.Health())
	}, labels...)

	for tier := 0; tier < Tiers; tier++ {
		ls := append(append([]obs.Label(nil), labels...), obs.L("tier", strconv.Itoa(tier)))
		for _, m := range []struct {
			name string
			get  func(AdmissionStats) []int64
		}{
			{"mar_admission_offered_total", func(s AdmissionStats) []int64 { return s.Offered }},
			{"mar_admission_admitted_total", func(s AdmissionStats) []int64 { return s.Admitted }},
			{"mar_admission_tail_drop_total", func(s AdmissionStats) []int64 { return s.TailDrop }},
			{"mar_admission_codel_shed_total", func(s AdmissionStats) []int64 { return s.CoDelShed }},
			{"mar_admission_dispatched_total", func(s AdmissionStats) []int64 { return s.Dispatched }},
		} {
			get := m.get
			reg.CounterFunc(m.name, func() int64 {
				return get(g.Stats().Admission)[tier]
			}, ls...)
		}
	}
}
