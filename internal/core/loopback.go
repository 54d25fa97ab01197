package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"biscatter/internal/mac"
	"biscatter/internal/netio"
	"biscatter/internal/telemetry"
	"biscatter/internal/trace"
)

// gatewayTones is the validated 4-pair uplink tone table: slots within one
// TDMA frame reuse it, so any fleet size works as long as at most 4 tags
// modulate per frame.
var gatewayTones = [4][2]float64{{1000, 1400}, {1800, 2200}, {2600, 3000}, {3400, 3800}}

// GatewayDeployment places tags nodes for a served deployment, IDs
// idBase+1 … idBase+tags. Slot s of frame group g sits at
// 1.5 + 1.2·s + 0.3·g m on tone pair s. capacity is the tags per TDMA
// frame group (non-positive selects the tone table, capped at tags); a
// fleet wider than capacity gets a frame schedule. IDs that do not fit the
// 1-byte wire ID fail with ErrTooManyTags. The caller sets the rest of the
// Config (ChirpsPerBit, Workers, Metrics, ...).
func GatewayDeployment(tags, capacity, idBase int, seed int64) (Config, error) {
	if tags < 1 || idBase < 0 || idBase+tags > 255 {
		return Config{}, fmt.Errorf("%w: %d tags from ID %d", ErrTooManyTags, tags, idBase+1)
	}
	if capacity <= 0 {
		capacity = min(tags, len(gatewayTones))
	}
	if capacity > len(gatewayTones) {
		return Config{}, fmt.Errorf("core: frame capacity %d exceeds the %d-pair tone table", capacity, len(gatewayTones))
	}
	cfg := Config{Seed: seed}
	if tags > capacity {
		sched, err := mac.NewFrameSchedule(tags, capacity)
		if err != nil {
			return Config{}, err
		}
		cfg.Schedule = sched
	}
	for i := 0; i < tags; i++ {
		group, slot := 0, i
		if cfg.Schedule != nil {
			group, slot = cfg.Schedule.Assignment(i)
		}
		cfg.Nodes = append(cfg.Nodes, NodeConfig{
			ID:           uint8(idBase + i + 1),
			Range:        1.5 + 1.2*float64(slot) + 0.3*float64(group),
			ModulationF0: gatewayTones[slot][0],
			ModulationF1: gatewayTones[slot][1],
		})
	}
	return cfg, nil
}

// LoopbackPayload is round's downlink payload in a loopback run: a pure
// function of (seed, round).
func LoopbackPayload(seed int64, round uint64) []byte {
	return RandomPayload(seed+int64(round)*977, 4)
}

// LoopbackBits is tag's uplink bits for round in a loopback run: a pure
// function of (seed, round, tag).
func LoopbackBits(seed int64, round uint64, tag uint8) []bool {
	x := uint64(seed+int64(round)*251+int64(tag))*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	x ^= x >> 33
	bits := make([]bool, 4)
	for i := range bits {
		bits[i] = x>>(uint(i)*7)&1 == 1
	}
	return bits
}

// endpointFaults is the fault profile of one loopback endpoint: the
// gateway (endpoint 0) keeps p's seed, tag id's socket adds 1000·id, so
// every endpoint draws its own reproducible fault stream. Nil stays nil.
func endpointFaults(p *netio.NetFaultProfile, endpoint uint8) *netio.NetFaultProfile {
	if p == nil {
		return nil
	}
	q := *p
	q.Seed += 1000 * int64(endpoint)
	return &q
}

// The loopback ARQ budget of every tag client, and the straggler budgets
// Run gives the gateway fields a caller leaves zero. The barrier is
// patient: a straggler's handshake retries must not force a partial round,
// because conformance pins the full fleet. Linger bounds the gateway's exit
// when a Goodbye is lost.
const (
	loopbackAttemptTimeout = 500 * time.Millisecond
	loopbackAttempts       = 40
	loopbackRoundTimeout   = 30 * time.Second
	loopbackFrameTimeout   = 10 * time.Second
	loopbackSessionTimeout = 60 * time.Second
	loopbackLinger         = 5 * time.Second
	loopbackPoll           = 5 * time.Millisecond
)

// Loopback is the serve-then-replay harness: it serves Config behind a
// netio.Gateway wrapped around an ExchangeRecorder, runs one netio.Client
// per node for Rounds rounds, checks every client's RoundOK outcome against
// the record, and replays the record against the in-process oracle. Inputs
// come from LoopbackPayload and LoopbackBits keyed by Config.Seed, so a run
// is reproducible up to wire timing.
type Loopback struct {
	// Config is the served deployment (see GatewayDeployment). A Schedule
	// makes every round one scheduled cycle.
	Config Config
	// Transport is the session transport: netio.TransportUDP (default) or
	// netio.TransportTCP.
	Transport string
	// Listen is the gateway's bind address (default 127.0.0.1:0).
	Listen string
	// Faults, when set, impairs every endpoint, each with its own seed.
	Faults *netio.NetFaultProfile
	// Rounds is the number of rounds every tag submits.
	Rounds int
	// Gateway carries the serving knobs (admission, heartbeat, flight
	// recorder, ...). Run sets Schedule, MinSessions, Rounds and Metrics,
	// and the straggler budgets RoundTimeout, FrameTimeout, SessionTimeout,
	// Linger and Poll where they are zero.
	Gateway netio.GatewayConfig
}

// LoopbackResult is what a Loopback run served and how it replayed.
type LoopbackResult struct {
	// Record holds every served round.
	Record *trace.ExchangeRecord
	// Replay is the record's replay against the in-process oracle.
	Replay *ReplayReport
	// Results holds each tag's round results, indexed like Config.Nodes.
	Results [][]*netio.RoundResult
	// Metrics is the netio registry the gateway and every client share.
	Metrics *telemetry.Metrics
	// Elapsed is the wall time from gateway start until every client was
	// done.
	Elapsed time.Duration
}

// FaultsInjected totals the datagrams the fault injectors dropped,
// duplicated, reordered or corrupted across every endpoint.
func (r *LoopbackResult) FaultsInjected() int64 {
	var n int64
	for _, c := range []string{"dropped", "duplicated", "reordered", "corrupted"} {
		n += r.Metrics.Counter("netio.fault." + c).Value()
	}
	return n
}

// Run serves the rounds, verifies the clients against the record and
// replays it. ctx bounds the serving. An error from any client, the
// gateway or the replay fails the run, and so does a gateway that does not
// wind down by itself within Linger once every tag has closed, a round the
// gateway failed or a client outcome that differs from the record.
func (l Loopback) Run(ctx context.Context) (*LoopbackResult, error) {
	netw, err := NewNetwork(l.Config)
	if err != nil {
		return nil, err
	}
	rec, err := NewExchangeRecorder(netw)
	if err != nil {
		return nil, err
	}
	seed := l.Config.Seed
	fn, err := NewGatewayHandler(rec, func(round uint64) []byte { return LoopbackPayload(seed, round) })
	if err != nil {
		return nil, err
	}

	m := telemetry.New()
	gwConn, err := netio.ListenTransport(l.Transport, cmp.Or(l.Listen, "127.0.0.1:0"),
		netio.WithMetrics(m), netio.WithNetFaults(endpointFaults(l.Faults, 0)))
	if err != nil {
		return nil, err
	}
	defer gwConn.Close()
	nodes := netw.Config().Nodes
	gcfg := l.Gateway
	gcfg.Schedule = netw.Schedule()
	gcfg.MinSessions = len(nodes)
	gcfg.Rounds = uint64(l.Rounds)
	gcfg.Metrics = m
	gcfg.RoundTimeout = cmp.Or(gcfg.RoundTimeout, loopbackRoundTimeout)
	gcfg.FrameTimeout = cmp.Or(gcfg.FrameTimeout, loopbackFrameTimeout)
	gcfg.SessionTimeout = cmp.Or(gcfg.SessionTimeout, loopbackSessionTimeout)
	gcfg.Linger = cmp.Or(gcfg.Linger, loopbackLinger)
	gcfg.Poll = cmp.Or(gcfg.Poll, loopbackPoll)
	gw := netio.NewGateway(gwConn, gcfg, fn)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	tagCtx, stopTags := context.WithCancel(ctx)
	defer stopTags()
	start := time.Now()
	gwDone := make(chan error, 1)
	go func() {
		gwDone <- gw.Run(ctx)
		// No tag still waiting on a gateway that has returned gets an
		// answer: stop it rather than let it retry until ctx expires.
		stopTags()
	}()

	res := &LoopbackResult{Results: make([][]*netio.RoundResult, len(nodes)), Metrics: m}
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, nc := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.Results[i], errs[i] = l.runTag(tagCtx, gwConn.Addr().String(), nc.ID, m)
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	if err := errors.Join(errs...); err != nil {
		cancel()
		<-gwDone
		return nil, err
	}
	// The last round ran before the last client got its result, so the
	// gateway's Linger is already counting: it must return by itself.
	select {
	case err = <-gwDone:
	case <-time.After(gcfg.Linger + time.Second):
		cancel()
		<-gwDone
		err = errors.New("did not finish after every tag closed")
	}
	if err != nil {
		return nil, fmt.Errorf("core: loopback gateway: %w", err)
	}
	res.Record = rec.Record()
	if err := checkLoopback(res.Record, res.Results); err != nil {
		return nil, err
	}
	if res.Replay, err = ReplayRecord(res.Record); err != nil {
		return nil, fmt.Errorf("core: loopback replay: %w", err)
	}
	return res, nil
}

// runTag is one tag's session: dial the gateway and submit every round.
func (l Loopback) runTag(ctx context.Context, addr string, id uint8, m *telemetry.Metrics) ([]*netio.RoundResult, error) {
	conn, err := netio.ListenTransport(l.Transport, "127.0.0.1:0",
		netio.WithMetrics(m), netio.WithNetFaults(endpointFaults(l.Faults, id)))
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	c, err := netio.Dial(conn, addr, netio.ClientConfig{
		TagID:          id,
		Seed:           l.Config.Seed + int64(id),
		AttemptTimeout: loopbackAttemptTimeout,
		MaxAttempts:    loopbackAttempts,
		DialAttempts:   loopbackAttempts,
		Metrics:        m,
	})
	if err != nil {
		return nil, fmt.Errorf("tag %d: %w", id, err)
	}
	defer c.Close()
	results := make([]*netio.RoundResult, 0, l.Rounds)
	for r := 0; r < l.Rounds; r++ {
		res, err := c.SubmitRound(ctx, LoopbackBits(l.Config.Seed, c.Round(), id))
		if err != nil {
			return nil, fmt.Errorf("tag %d round %d: %w", id, r, err)
		}
		results = append(results, res)
	}
	return results, nil
}

// checkLoopback requires every client's RoundOK outcome to equal the
// recorded outcome of its node byte for byte: the distributed run and the
// recorder computed the same physics. A round the gateway failed to
// compute (RoundError) fails the check too.
func checkLoopback(record *trace.ExchangeRecord, results [][]*netio.RoundResult) error {
	for i, rs := range results {
		for _, res := range rs {
			if res.Status == netio.RoundError {
				return fmt.Errorf("core: loopback node %d round %d: %s", i, res.Round, res.Outcome.Err)
			}
			if res.Status != netio.RoundOK {
				continue
			}
			if res.Round >= uint64(len(record.Rounds)) || i >= len(record.Rounds[res.Round].Outcomes) {
				return fmt.Errorf("core: loopback node %d round %d: no recorded outcome", i, res.Round)
			}
			if want := wireOutcome(record.Rounds[res.Round].Outcomes[i]); !res.Outcome.Equal(want) {
				return fmt.Errorf("core: loopback node %d round %d: outcome diverged from record:\n got %+v\nwant %+v",
					i, res.Round, res.Outcome, want)
			}
		}
	}
	return nil
}

// wireOutcome converts a recorded outcome into the wire digest a client
// receives; the two carry the same fields.
func wireOutcome(o trace.NodeOutcome) netio.Outcome {
	return netio.Outcome{
		DownlinkPayload: o.DownlinkPayload,
		DownlinkErr:     o.DownlinkErr,
		DetectionRange:  o.DetectionRange,
		DetectionBin:    int32(o.DetectionBin),
		DetectionSNRdB:  o.DetectionSNRdB,
		DetectionErr:    o.DetectionErr,
		UplinkBits:      o.UplinkBits,
		UplinkErr:       o.UplinkErr,
	}
}
