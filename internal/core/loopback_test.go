package core

import (
	"errors"
	"testing"

	"biscatter/internal/netio"
)

// TestGatewayDeploymentIDLimit pins the 1-byte wire ID limit: a deployment
// whose IDs would wrap past 255 (or that places no tags) fails with
// ErrTooManyTags instead of silently reusing ID 0 or colliding in the mux.
// A frame capacity past the tone table is a different error.
func TestGatewayDeploymentIDLimit(t *testing.T) {
	for _, c := range []struct {
		name         string
		tags, idBase int
		wantErr      bool
	}{
		{"no tags", 0, 0, true},
		{"one tag", 1, 0, false},
		{"255 tags", 255, 0, false},
		{"256 tags", 256, 0, true},
		{"second network fits", 55, 200, false},
		{"second network overflows", 56, 200, true},
		{"two 200-tag networks", 200, 200, true},
		{"negative base", 4, -1, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg, err := GatewayDeployment(c.tags, 0, c.idBase, 1)
			if c.wantErr {
				if !errors.Is(err, ErrTooManyTags) {
					t.Fatalf("err = %v, want ErrTooManyTags", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(cfg.Nodes) != c.tags {
				t.Fatalf("placed %d nodes, want %d", len(cfg.Nodes), c.tags)
			}
			for i, nc := range cfg.Nodes {
				if want := uint8(c.idBase + i + 1); nc.ID != want {
					t.Fatalf("node %d has ID %d, want %d", i, nc.ID, want)
				}
			}
		})
	}
	if _, err := GatewayDeployment(6, 5, 0, 1); err == nil || errors.Is(err, ErrTooManyTags) {
		t.Fatalf("capacity past the tone table: err = %v, want a capacity error", err)
	}
}

// TestLoopbackCheckCatchesDivergence pins the client-vs-record check: an
// outcome that differs from its node's recorded outcome fails the run, as
// does a failed round; skipped rounds are not checked.
func TestLoopbackCheckCatchesDivergence(t *testing.T) {
	cfg, err := GatewayDeployment(1, 0, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ChirpsPerBit, cfg.Workers = 16, 1
	netw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewExchangeRecorder(netw)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rec.Exchange(LoopbackPayload(5, 0), map[int][]bool{0: LoopbackBits(5, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	good := &netio.RoundResult{Round: 0, Status: netio.RoundOK, Outcome: wireOutcome(nodeOutcome(res.Nodes[0]))}
	if err := checkLoopback(rec.Record(), [][]*netio.RoundResult{{good}}); err != nil {
		t.Fatalf("matching outcome rejected: %v", err)
	}
	bad := *good
	bad.Outcome.DetectionRange += 0.01
	if err := checkLoopback(rec.Record(), [][]*netio.RoundResult{{&bad}}); err == nil {
		t.Fatal("diverged outcome accepted")
	}
	missing := &netio.RoundResult{Round: 1, Status: netio.RoundOK}
	if err := checkLoopback(rec.Record(), [][]*netio.RoundResult{{missing}}); err == nil {
		t.Fatal("result for an unrecorded round accepted")
	}
	skipped := &netio.RoundResult{Round: 1, Status: netio.RoundSkipped}
	if err := checkLoopback(rec.Record(), [][]*netio.RoundResult{{skipped}}); err != nil {
		t.Fatalf("skipped round checked: %v", err)
	}
	failed := &netio.RoundResult{Round: 0, Status: netio.RoundError}
	if err := checkLoopback(rec.Record(), [][]*netio.RoundResult{{failed}}); err == nil {
		t.Fatal("failed round accepted")
	}
}
