package biscatter

import (
	"bytes"
	"context"
	"math"
	"testing"
)

func TestFacadeEndToEnd(t *testing.T) {
	net, err := NewNetwork(Config{
		Nodes: []NodeConfig{{ID: 1, Range: 2.6}},
		Seed:  100,
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("public api")
	up := []bool{true, false, true, true}
	res, err := net.Exchange(payload, map[int][]bool{0: up})
	if err != nil {
		t.Fatal(err)
	}
	nr := res.Nodes[0]
	if nr.DownlinkErr != nil || !bytes.Equal(nr.DownlinkPayload, payload) {
		t.Fatalf("downlink: %v %q", nr.DownlinkErr, nr.DownlinkPayload)
	}
	if nr.DetectionErr != nil || math.Abs(nr.Detection.Range-2.6) > 0.06 {
		t.Fatalf("localization: %v %.3f m", nr.DetectionErr, nr.Detection.Range)
	}
	for i, b := range up {
		if nr.UplinkBits[i] != b {
			t.Fatalf("uplink bit %d wrong", i)
		}
	}
}

func TestFacadePresetsAndModels(t *testing.T) {
	if Radar9GHz().Chirp.Bandwidth != 1e9 {
		t.Error("9 GHz preset bandwidth")
	}
	if Radar24GHz().Chirp.Bandwidth != 250e6 {
		t.Error("24 GHz preset bandwidth")
	}
	if snr := DefaultLink().DownlinkSNRdB(7); snr < 12 || snr > 20 {
		t.Errorf("link calibration drifted: %v dB at 7 m", snr)
	}
	if p := DefaultPowerModel().Continuous(); math.Abs(p-48e-3) > 1e-3 {
		t.Errorf("power model drifted: %v W", p)
	}
}

func TestFacadeHelpers(t *testing.T) {
	a := RandomPayload(1, 4)
	b := RandomPayload(1, 4)
	if !bytes.Equal(a, b) {
		t.Error("RandomPayload not deterministic")
	}
	errs, total := CountBitErrors([]byte{0xF0}, []byte{0x0F})
	if errs != 8 || total != 8 {
		t.Errorf("CountBitErrors: %d/%d", errs, total)
	}
}

// TestFacadeFleet drives the fleet surface end to end through the public
// API: shared Option plumbing, concurrent-safe handles, schedule helpers
// and the fleet sentinels.
func TestFacadeFleet(t *testing.T) {
	m := NewMetrics()
	fleet := NewFleet(FleetConfig{Engines: 2, Metrics: m}, WithWorkers(1))
	defer fleet.Close()

	fn, err := fleet.AddNetwork(Config{
		Nodes: []NodeConfig{{ID: 1, Range: 2.6}},
		Seed:  100,
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("fleet api")
	var res *ExchangeResult
	err = fn.Do(context.Background(), func(ctx context.Context, n *Network) (err error) {
		res, err = n.ExchangeContext(ctx, payload, map[int][]bool{0: {true, false}})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes[0].DownlinkErr != nil || !bytes.Equal(res.Nodes[0].DownlinkPayload, payload) {
		t.Fatalf("fleet downlink: %v %q", res.Nodes[0].DownlinkErr, res.Nodes[0].DownlinkPayload)
	}
	if got := m.Counter("fleet.requests").Value(); got != 1 {
		t.Fatalf("fleet.requests = %d, want 1", got)
	}

	sched, err := NewFrameSchedule(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Frames() != 2 {
		t.Fatalf("4 tags at capacity 2 should need 2 frames, got %d", sched.Frames())
	}
	if _, err := ScheduleFor(6, 120e-6, 64); err != nil {
		t.Fatalf("ScheduleFor: %v", err)
	}
	if ErrNodeInactive == nil || ErrFleetClosed == nil {
		t.Fatal("fleet sentinels must be exported")
	}
}
