package eval

import (
	"fmt"
	"testing"

	"biscatter/internal/netio"
)

// TestDistributedSweepCleanPoint runs zero-loss points: no faults means no
// injected impairments, full completion, and a conformant replay — on the
// unscheduled UDP path and on the TDMA-scheduled TCP path (5 tags over two
// 4-tag frame groups).
func TestDistributedSweepCleanPoint(t *testing.T) {
	for _, c := range []struct {
		tags, rounds int
		transport    string
	}{
		{2, 2, netio.TransportUDP},
		{5, 1, netio.TransportTCP},
	} {
		t.Run(fmt.Sprintf("%d-tags-%s", c.tags, c.transport), func(t *testing.T) {
			pt, err := ServedSweep(c.tags, c.rounds, c.transport, 0, Options{Seed: 5}.withDefaults())
			if err != nil {
				t.Fatal(err)
			}
			if pt.Rounds != c.rounds {
				t.Fatalf("served %d rounds, want %d", pt.Rounds, c.rounds)
			}
			if want := c.tags * c.rounds; pt.Completed != want {
				t.Fatalf("completed %d of %d round-results on a clean link", pt.Completed, want)
			}
			if pt.FaultsInjected != 0 {
				t.Fatalf("clean point injected %d faults", pt.FaultsInjected)
			}
			if !pt.ReplayOK {
				t.Fatal("clean point's record did not replay byte-identically")
			}
		})
	}
}

// TestDistributedSweepLossyPoint runs the acceptance loss duty (10%): the
// run must still complete and replay clean, with faults observably injected.
func TestDistributedSweepLossyPoint(t *testing.T) {
	pt, err := ServedSweep(2, 3, netio.TransportUDP, 0.10, Options{Seed: 5}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if pt.Rounds != 3 {
		t.Fatalf("served %d rounds, want 3", pt.Rounds)
	}
	if pt.FaultsInjected == 0 {
		t.Fatal("lossy point injected no faults")
	}
	if !pt.ReplayOK {
		t.Fatal("lossy point's record did not replay byte-identically")
	}
}
