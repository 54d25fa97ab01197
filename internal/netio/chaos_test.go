package netio_test

// Chaos conformance: the ISSUE's acceptance centerpiece. A loopback
// radar↔N-tag run under seeded drop/duplicate/reorder/corrupt faults must
// produce exchange outcomes byte-identical to the in-process oracle — pinned
// by replaying the captured trace.ExchangeRecord — and a tag killed mid-run
// must be quarantined and evicted while the rest of the fleet completes,
// with the restarted tag resuming at the gateway's current round.

import (
	"context"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"biscatter/internal/core"
	"biscatter/internal/netio"
	"biscatter/internal/telemetry"
	"biscatter/internal/trace"
)

// chaosConfig places tags nodes with core.GatewayDeployment (frame groups
// of capacity tags; 0 = the tone table), sized for speed (ChirpsPerBit 16,
// one worker — the 1-core CI host runs the suite under -race).
func chaosConfig(t *testing.T, tags, capacity int) core.Config {
	t.Helper()
	cfg, err := core.GatewayDeployment(tags, capacity, 0, 424)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ChirpsPerBit, cfg.Workers = 16, 1
	return cfg
}

// chaosProfile is the acceptance fault duty: ≤ 0.1 drop plus reordering,
// duplication and corruption, seeded per endpoint so the run replays.
func chaosProfile(seed int64) *netio.NetFaultProfile {
	return &netio.NetFaultProfile{
		Seed:      seed,
		Drop:      0.10,
		Reorder:   0.05,
		Duplicate: 0.03,
		Corrupt:   0.02,
	}
}

func chaosDial(t *testing.T, m *telemetry.Metrics, gwAddr string, tag uint8, faultSeed int64) (*netio.Client, *netio.Node) {
	t.Helper()
	conn, err := netio.Listen("127.0.0.1:0",
		netio.WithMetrics(m), netio.WithNetFaults(chaosProfile(faultSeed)))
	if err != nil {
		t.Fatal(err)
	}
	c, err := netio.Dial(conn, gwAddr, netio.ClientConfig{
		TagID:          tag,
		Seed:           int64(tag),
		AttemptTimeout: 300 * time.Millisecond,
		MaxAttempts:    30,
		DialAttempts:   30,
		Metrics:        m,
	})
	if err != nil {
		conn.Close()
		t.Fatalf("dial tag %d: %v", tag, err)
	}
	return c, conn
}

// replayBothWays pins the record against the oracle at the recorded worker
// count and again at 4 workers (stats must be worker-invariant), after a
// save/load round trip through the trace file format.
func replayBothWays(t *testing.T, dir string, rec *trace.ExchangeRecord) {
	t.Helper()
	path := filepath.Join(dir, "chaos.bsctrace")
	if err := trace.SaveExchange(path, rec); err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.LoadExchange(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 4} {
		var opts []core.Option
		if workers > 0 {
			opts = append(opts, core.WithWorkers(workers))
		}
		rep, err := core.ReplayRecord(loaded, opts...)
		if err != nil {
			t.Fatalf("replay (workers=%d): %v", workers, err)
		}
		if !rep.OK() {
			t.Fatalf("replay (workers=%d) diverged: %v", workers, rep.Mismatches)
		}
	}
}

// checkChaosRun pins what every chaos conformance run must show: every tag
// got every round OK, no round ran with a partial fleet, the record
// replays (in memory, and after a save/load round trip at two worker
// counts), every session was accepted once, and the faults really fired.
func checkChaosRun(t *testing.T, res *core.LoopbackResult, tags, rounds int) {
	t.Helper()
	record := res.Record
	if len(record.Rounds) != rounds {
		t.Fatalf("recorded %d rounds, want %d", len(record.Rounds), rounds)
	}
	for i, rs := range res.Results {
		if len(rs) != rounds {
			t.Fatalf("tag %d completed %d rounds, want %d", i+1, len(rs), rounds)
		}
		for _, r := range rs {
			if r.Status != netio.RoundOK {
				t.Fatalf("tag %d round %d status %s, want ok", i+1, r.Round, r.Status)
			}
			if active := record.Rounds[r.Round].Input.Active; active != nil {
				t.Fatalf("round %d ran with a partial fleet %v", r.Round, active)
			}
		}
	}
	if !res.Replay.OK() {
		t.Fatalf("replay diverged: %v", res.Replay.Mismatches)
	}
	replayBothWays(t, t.TempDir(), record)

	m := res.Metrics
	if got := m.Counter("netio.rounds").Value(); got != int64(rounds) {
		t.Fatalf("netio.rounds = %d, want %d", got, rounds)
	}
	if got := m.Counter("netio.sessions.accepted").Value(); got != int64(tags) {
		t.Fatalf("netio.sessions.accepted = %d, want %d", got, tags)
	}
	if m.Counter("netio.fault.dropped").Value() == 0 {
		t.Fatal("fault injector dropped nothing — the chaos run was not chaotic")
	}
}

// TestChaosConformance runs a loopback gateway against 4 tags with faults
// injected on every endpoint and requires the distributed run to be
// byte-identical to the in-process oracle. core.Loopback checks every
// client outcome against the record byte for byte.
func TestChaosConformance(t *testing.T) {
	const rounds = 5
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	res, err := core.Loopback{
		Config: chaosConfig(t, 4, 0),
		Faults: chaosProfile(7),
		Rounds: rounds,
		Gateway: netio.GatewayConfig{
			HeartbeatInterval: 100 * time.Millisecond,
			SessionTimeout:    10 * time.Second,
			// Tight enough that a straggler stuck past a few lost
			// datagrams breaks the full-fleet check, loose enough for the
			// harness ARQ schedule (round gaps reach 3.5 s at this duty).
			RoundTimeout: 8 * time.Second,
			Flight:       telemetry.NewFlightRecorder(32),
		},
	}.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	checkChaosRun(t, res, 4, rounds)
}

// TestChaosKillRestartResume kills one tag mid-run: the gateway must open
// its breaker (the fleet keeps exchanging without it), evict the silent
// session, and hand the restarted tag a session that resumes at the current
// round — with every transition observable in telemetry and the flight
// recorder, and the full record still replaying clean.
func TestChaosKillRestartResume(t *testing.T) {
	const rounds = 5
	cfg := chaosConfig(t, 3, 0)
	net, err := core.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := core.NewExchangeRecorder(net)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := core.NewGatewayHandler(rec, func(round uint64) []byte {
		return core.LoopbackPayload(cfg.Seed, round)
	})
	if err != nil {
		t.Fatal(err)
	}

	m := telemetry.New()
	fl := telemetry.NewFlightRecorder(32)
	gwConn, err := netio.Listen("127.0.0.1:0", netio.WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	defer gwConn.Close()

	gw := netio.NewGateway(gwConn, netio.GatewayConfig{
		MinSessions:       3,
		Rounds:            rounds,
		HeartbeatInterval: 100 * time.Millisecond,
		SessionTimeout:    1500 * time.Millisecond,
		RoundTimeout:      500 * time.Millisecond,
		BreakerThreshold:  1,
		Poll:              5 * time.Millisecond,
		Linger:            20 * time.Second,
		Metrics:           m,
		Flight:            fl,
	}, fn)

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	gwDone := make(chan error, 1)
	go func() { gwDone <- gw.Run(ctx) }()

	addr := gwConn.Addr().String()
	c1, conn1 := chaosDial(t, m, addr, 1, 201)
	defer conn1.Close()
	c2, conn2 := chaosDial(t, m, addr, 2, 202)
	defer conn2.Close()
	c3, conn3 := chaosDial(t, m, addr, 3, 203)

	// submitAll drives one round concurrently across the live clients — the
	// gateway's barrier needs the submissions in flight together.
	submitAll := func(round uint64, clients map[uint8]*netio.Client) map[uint8]*netio.RoundResult {
		t.Helper()
		var mu sync.Mutex
		out := make(map[uint8]*netio.RoundResult, len(clients))
		var wg sync.WaitGroup
		for tag, c := range clients {
			wg.Add(1)
			go func(tag uint8, c *netio.Client) {
				defer wg.Done()
				res, err := c.SubmitRound(ctx, core.LoopbackBits(cfg.Seed, round, tag))
				if err != nil {
					t.Errorf("tag %d round %d: %v", tag, round, err)
					return
				}
				mu.Lock()
				out[tag] = res
				mu.Unlock()
			}(tag, c)
		}
		wg.Wait()
		return out
	}
	requireOK := func(res map[uint8]*netio.RoundResult, round uint64, tags ...uint8) {
		t.Helper()
		for _, tag := range tags {
			r := res[tag]
			if r == nil || r.Status != netio.RoundOK {
				t.Fatalf("tag %d round %d: %+v, want ok", tag, round, r)
			}
		}
	}

	// Round 0: the full fleet.
	requireOK(submitAll(0, map[uint8]*netio.Client{1: c1, 2: c2, 3: c3}), 0, 1, 2, 3)

	// Kill tag 3 without a Goodbye: the socket just goes dark.
	conn3.Close()
	_ = c3

	// Rounds 1-2 run with the survivors. Round 1 waits out the round
	// timeout for tag 3 and strikes it (breaker opens); round 2 must run
	// promptly — the barrier no longer waits for a quarantined session.
	live := map[uint8]*netio.Client{1: c1, 2: c2}
	requireOK(submitAll(1, live), 1, 1, 2)
	requireOK(submitAll(2, live), 2, 1, 2)
	if got := m.Counter("netio.breaker.open").Value(); got != 1 {
		t.Fatalf("netio.breaker.open = %d, want 1", got)
	}

	// Wait for the liveness deadline to evict tag 3's session, keeping the
	// survivors' sessions warm with idle heartbeats meanwhile.
	evictDeadline := time.Now().Add(15 * time.Second)
	for m.Counter("netio.evicted").Value() == 0 {
		if time.Now().After(evictDeadline) {
			t.Fatal("silent session was never evicted")
		}
		for _, c := range []*netio.Client{c1, c2} {
			if err := c.Wait(ctx, 50*time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
	}
	if fl.Trips() < 2 {
		t.Fatalf("flight recorder saw %d trips, want ≥ 2 (breaker open + eviction)", fl.Trips())
	}

	// Restart tag 3: a fresh socket, the same identity. The handshake must
	// resume at the gateway's current round.
	c3b, conn3b := chaosDial(t, m, addr, 3, 204)
	defer conn3b.Close()
	defer c3b.Close()
	if got := c3b.Round(); got != 3 {
		t.Fatalf("restarted tag resumed at round %d, want 3", got)
	}

	// Rounds 3-4: the full fleet again.
	all := map[uint8]*netio.Client{1: c1, 2: c2, 3: c3b}
	requireOK(submitAll(3, all), 3, 1, 2, 3)
	requireOK(submitAll(4, all), 4, 1, 2, 3)

	c1.Close()
	conn1.Close()
	c2.Close()
	conn2.Close()
	c3b.Close()
	conn3b.Close()

	select {
	case err := <-gwDone:
		if err != nil {
			t.Fatalf("gateway: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("gateway did not finish")
	}

	record := rec.Record()
	if len(record.Rounds) != rounds {
		t.Fatalf("recorded %d rounds, want %d", len(record.Rounds), rounds)
	}
	// Rounds 1-2 must have run as a strict subset (nodes 0 and 1); the
	// bracketing rounds with the full fleet.
	for _, r := range []int{1, 2} {
		active := record.Rounds[r].Input.Active
		if len(active) != 2 || active[0] != 0 || active[1] != 1 {
			t.Fatalf("round %d active set %v, want [0 1]", r, active)
		}
	}
	for _, r := range []int{0, 3, 4} {
		if record.Rounds[r].Input.Active != nil {
			t.Fatalf("round %d active set %v, want full fleet", r, record.Rounds[r].Input.Active)
		}
	}
	replayBothWays(t, t.TempDir(), record)

	if got := m.Counter("netio.evicted").Value(); got != 1 {
		t.Fatalf("netio.evicted = %d, want 1", got)
	}
	if got := m.Counter("netio.sessions.accepted").Value(); got != 4 {
		t.Fatalf("netio.sessions.accepted = %d, want 4 (3 initial + 1 restart)", got)
	}
}
