package main

import (
	"testing"

	"biscatter/internal/core"
	"biscatter/internal/netio"
)

// TestPlanSceneRejectsMalformedPlans pins that a modulation plan off the
// wire is validated by the tag's modulator before the radar uses it: a
// zero bit window (which the wire format accepts) or an out-of-band tone
// fails the round with an error instead of panicking the radar process.
func TestPlanSceneRejectsMalformedPlans(t *testing.T) {
	netw, err := core.NewNetwork(core.Config{Nodes: []core.NodeConfig{{ID: 1, Range: 2.6}}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	up := netw.Nodes()[0].Uplink
	cpb := uint16(up.ChirpsPerBit)
	for name, tc := range map[string]struct {
		plan netio.ModulationPlan
		ok   bool
	}{
		"valid":                         {netio.ModulationPlan{F0: up.F0, F1: up.F1, ChirpsPerBit: cpb}, true},
		"zero chirps per bit":           {netio.ModulationPlan{F0: up.F0, F1: up.F1}, false},
		"tone past half the chirp rate": {netio.ModulationPlan{F0: up.F0, F1: 1 / netw.Config().Period, ChirpsPerBit: cpb}, false},
	} {
		tc.plan.SetBits([]bool{true, false, true})
		scene, err := planScene(netw, &tc.plan, 256, 2.6)
		if tc.ok != (err == nil) || tc.ok && len(scene.Tags[0].States) != 256 {
			t.Errorf("%s: planScene = %+v, %v; want ok=%v over 256 chirps", name, scene.Tags, err, tc.ok)
		}
	}
}
