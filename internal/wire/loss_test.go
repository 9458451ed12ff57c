package wire

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"marnet/internal/core"
	"marnet/internal/faults"
	"marnet/internal/obs"
)

func TestLossRateTracksLossyPath(t *testing.T) {
	// A relay dropping a quarter of uplink datagrams: the connection's
	// smoothed loss rate must move off zero and surface through the
	// conn.
	key := bytes.Repeat([]byte{9}, 16)
	var rx collector
	server, err := Listen("127.0.0.1:0", Config{Key: key, OnMessage: rx.add})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	relay, err := faults.NewRelay(server.LocalAddr().String(), faults.Config{
		Seed: 17,
		Up:   faults.DirConfig{Loss: 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	sess, err := Dial(relay.Addr(), Config{
		Streams:     []StreamSpec{{ID: 1, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 2e6}},
		StartBudget: 5e6,
		Key:         key,
		Keepalive:   250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	const n = 60
	for i := 0; i < n; i++ {
		if _, err := sess.Send(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if !waitFor(t, 10*time.Second, func() bool { return rx.count() >= n }) {
		t.Fatalf("received %d/%d through lossy relay", rx.count(), n)
	}
	if !waitFor(t, 10*time.Second, func() bool { return sess.LossRate() > 0 }) {
		t.Fatal("loss rate still zero after sustained 25% uplink loss")
	}
	if lost := sess.LostFrameCount(); lost == 0 {
		t.Error("LostFrameCount zero despite relay drops")
	}
	if r := sess.LossRate(); r <= 0 || r >= 1 {
		t.Errorf("loss rate %v outside (0,1)", r)
	}
}

func TestLossRateStaysZeroOnCleanPath(t *testing.T) {
	var rx collector
	server, err := Listen("127.0.0.1:0", Config{OnMessage: rx.add})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	client, err := Dial(server.LocalAddr().String(), Config{
		Streams: []StreamSpec{{ID: 1, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 2e6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	reg := obs.NewRegistry()
	client.PublishMetrics(reg, obs.L("role", "client"))

	for i := 0; i < 20; i++ {
		if _, err := client.Send(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if !waitFor(t, 5*time.Second, func() bool { return rx.count() >= 20 }) {
		t.Fatalf("received %d/20 on clean loopback", rx.count())
	}
	if r := client.LossRate(); r != 0 {
		t.Errorf("loss rate %v on a loss-free path", r)
	}
	if p, ok := lookup(reg, "mar_wire_loss_rate", obs.L("role", "client")); !ok || p.Value != 0 {
		t.Errorf("conn loss gauge: ok=%v value=%v", ok, p.Value)
	}
	if p, ok := lookup(reg, "mar_wire_frames_lost_total", obs.L("role", "client")); !ok || p.Value != 0 {
		t.Errorf("frames lost counter: ok=%v value=%v", ok, p.Value)
	}
}

// lookup reads the point for name+labels (in registration order) off
// reg's export.
func lookup(reg *obs.Registry, name string, labels ...obs.Label) (obs.Point, bool) {
	for _, p := range reg.Gather() {
		if p.Name == name && slices.Equal(p.Labels, labels) {
			return p, true
		}
	}
	return obs.Point{}, false
}
