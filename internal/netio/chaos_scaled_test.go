package netio_test

// Scaled chaos conformance: 16 tag processes over 4 TDMA frame groups, on
// both the UDP and the length-prefixed TCP transport, under the acceptance
// fault profile. Every cycle runs as one recorded ExchangeScheduled round,
// and the captured record must replay byte-identically against the
// in-process oracle — the schedule-aware gateway computes exactly the
// physics the oracle does, regardless of transport.

import (
	"context"
	"testing"
	"time"

	"biscatter/internal/core"
	"biscatter/internal/netio"
)

// TestChaosScheduledScaled is the scaled acceptance run: 16 tags over 4
// frame groups complete a multi-round schedule-aware run under the chaos
// fault profile, with byte-identical replay — once per transport.
func TestChaosScheduledScaled(t *testing.T) {
	if testing.Short() {
		t.Skip("scaled chaos run is not -short")
	}
	if raceEnabled {
		t.Skip("barrier timeouts are wall-clock straggler budgets; the race detector's slowdown turns them into false evictions (race coverage lives in TestChaosConformance)")
	}
	for _, transport := range []string{netio.TransportUDP, netio.TransportTCP} {
		t.Run(transport, func(t *testing.T) {
			runScaledChaos(t, transport)
		})
	}
}

// runScaledChaos serves 16 tags in 4-tag frame groups on core.Loopback,
// whose barrier budgets outwait a straggler's handshake retries: a partial
// round here would break the full-fleet conformance this test pins.
func runScaledChaos(t *testing.T, transport string) {
	const (
		nTags    = 16
		capacity = 4
		rounds   = 2
	)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	res, err := core.Loopback{
		Config:    chaosConfig(t, nTags, capacity),
		Transport: transport,
		Faults:    chaosProfile(7),
		Rounds:    rounds,
	}.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	checkChaosRun(t, res, nTags, rounds)
	for r, round := range res.Record.Rounds {
		if !round.Input.Scheduled {
			t.Fatalf("round %d was not recorded as a scheduled cycle", r)
		}
		if len(round.Input.UplinkBits) != nTags {
			t.Fatalf("round %d served %d tags, want %d", r, len(round.Input.UplinkBits), nTags)
		}
	}
	if got := res.Metrics.Counter("netio.admission.admitted").Value(); got != nTags {
		t.Fatalf("netio.admission.admitted = %d, want %d", got, nTags)
	}
}
