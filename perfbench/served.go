package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"biscatter/internal/core"
	"biscatter/internal/netio"
	"biscatter/internal/telemetry"
	"biscatter/internal/trace"
)

// Every netio timer sits far above the slowest round (~0.2 s), so no timer
// ever fires in a clean run and none is what gets measured.
const (
	attemptTimeout  = 30 * time.Second
	maxAttempts     = 2
	frameTimeout    = 60 * time.Second
	roundTimeout    = 60 * time.Second
	sessionTimeout  = 120 * time.Second
	heartbeatPeriod = 60 * time.Second
	linger          = 60 * time.Second
)

// guardCounters must all read zero after a clean run: a retry, eviction or
// open breaker means a timer fired, and the run's rounds count as failed.
var guardCounters = []string{"netio.client.retries", "netio.client.evicted", "netio.evicted", "netio.breaker.open"}

// servedSpec is one served workload: two tag clients behind a gateway.
type servedSpec struct {
	transport string
	// scheduled puts the tags in two TDMA frame groups behind a
	// core.GatewayMux backed by a one-engine core.Fleet.
	scheduled bool
}

// submit is one tag's SubmitRound as its client saw it.
type submit struct {
	tag        uint8
	round      uint64
	bits       []bool
	start, end time.Time
	res        *netio.RoundResult
	err        error
}

// failed applies the op failure rule: ARQ exhaustion (or any client
// error), a non-OK status, or an error outcome (Outcome.Err: the exchange
// could not run for this tag). A downlink or uplink the simulated channel
// corrupted is a served result, not a failed op; tag.decode_ok_ratio and
// radar.uplink_ok_ratio report those.
func (s submit) failed() bool {
	return s.err != nil || s.res == nil || s.res.Status != netio.RoundOK || s.res.Outcome.Err != ""
}

// describe says why a failed op failed.
func (s submit) describe() string {
	switch {
	case s.err != nil:
		return s.err.Error()
	case s.res == nil:
		return "no result"
	case s.res.Status != netio.RoundOK:
		return "status " + s.res.Status.String()
	}
	return "outcome error " + s.res.Outcome.Err
}

// exchangeTimer wraps the gateway's ExchangeFunc. It hands each round's
// record entry to the benchmark as soon as the round has run, and, while
// on, records when each exchange ran. The gateway calls it from its
// supervision goroutine; the benchmark reads it from its own.
type exchangeTimer struct {
	fn  netio.ExchangeFunc
	rec *core.ExchangeRecorder
	on  atomic.Bool

	mu     sync.Mutex
	at     map[uint64][2]time.Time
	rounds []trace.RoundRecord
}

func (t *exchangeTimer) exchange(round uint64, bits map[uint8][]bool) (map[uint8]netio.Outcome, error) {
	on := t.on.Load()
	var t0 time.Time
	if on {
		t0 = time.Now()
	}
	out, err := t.fn(round, bits)
	var t1 time.Time
	if on {
		t1 = time.Now()
	}
	// The recorder appended inside fn, on this goroutine or on one fn
	// waited for.
	rs := t.rec.Record().Rounds
	t.mu.Lock()
	if on {
		t.at[round] = [2]time.Time{t0, t1}
	}
	t.rounds = append(t.rounds, rs[len(t.rounds):]...)
	t.mu.Unlock()
	return out, err
}

func (t *exchangeTimer) span(round uint64) ([2]time.Time, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.at[round]
	return s, ok
}

// recorded returns the record entries of rounds [from, end).
func (t *exchangeTimer) recorded(from int) []trace.RoundRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]trace.RoundRecord(nil), t.rounds[from:]...)
}

// tagClient is one tag's session, driven one round at a time by its own
// goroutine.
type tagClient struct {
	id   uint8
	conn *netio.Node
	c    *netio.Client
	go_  chan struct{}
	done chan submit
}

// servedRig is a gateway, its physics and its tag clients, all in this
// process over loopback.
type servedRig struct {
	spec    servedSpec
	seed    int64
	cfg     core.Config
	rec     *core.ExchangeRecorder
	fleet   *core.Fleet
	fleetM  *telemetry.Metrics
	netM    *telemetry.Metrics
	timer   *exchangeTimer
	gwConn  *netio.Node
	cancel  context.CancelFunc
	gwDone  chan error
	clients []*tagClient
	wg      sync.WaitGroup
	subs    []submit // every submit of the rig's life, in round order
}

// setupServed builds the rig and runs the warm-up rounds.
func setupServed(spec servedSpec, seed int64) (*servedRig, error) {
	cfg, err := deploymentConfig(seed, spec.scheduled)
	if err != nil {
		return nil, err
	}
	r := &servedRig{spec: spec, seed: seed, cfg: cfg, netM: telemetry.New()}
	payload := func(round uint64) []byte { return payloadFor(seed, round) }
	var fn netio.ExchangeFunc
	gcfg := netio.GatewayConfig{
		MinSessions:       nTags,
		HeartbeatInterval: heartbeatPeriod,
		SessionTimeout:    sessionTimeout,
		RoundTimeout:      roundTimeout,
		FrameTimeout:      frameTimeout,
		Linger:            linger,
		Metrics:           r.netM,
	}
	if spec.scheduled {
		// The fleet keeps its scheduling telemetry (queue wait); the
		// network's own pipeline telemetry stays off, as on pair-udp.
		r.fleetM = telemetry.New()
		r.fleet = core.NewFleet(core.FleetConfig{Engines: 1, Metrics: r.fleetM}, core.WithWorkers(1))
		h, err := r.fleet.AddNetwork(cfg, core.WithMetrics(nil))
		if err != nil {
			r.fleet.Close()
			return nil, err
		}
		if r.rec, err = core.NewExchangeRecorder(h.Network()); err != nil {
			r.fleet.Close()
			return nil, err
		}
		mux, err := core.NewGatewayMux(payload, core.GatewayMember{Recorder: r.rec, Handle: h})
		if err != nil {
			r.fleet.Close()
			return nil, err
		}
		fn = mux.ExchangeFunc()
		gcfg.Schedule, gcfg.GroupOf, gcfg.MaxSessions = cfg.Schedule, mux.GroupOf, mux.Sessions()
	} else {
		netw, err := core.NewNetwork(cfg, core.WithWorkers(1))
		if err != nil {
			return nil, err
		}
		if r.rec, err = core.NewExchangeRecorder(netw); err != nil {
			return nil, err
		}
		if fn, err = core.NewGatewayHandler(r.rec, payload); err != nil {
			return nil, err
		}
	}
	r.timer = &exchangeTimer{fn: fn, rec: r.rec, at: make(map[uint64][2]time.Time)}

	if r.gwConn, err = netio.ListenTransport(spec.transport, "127.0.0.1:0", netio.WithMetrics(r.netM)); err != nil {
		r.close()
		return nil, err
	}
	gw := netio.NewGateway(r.gwConn, gcfg, r.timer.exchange)
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel, r.gwDone = cancel, make(chan error, 1)
	go func() { r.gwDone <- gw.Run(ctx) }()

	for i := 0; i < nTags; i++ {
		if err := r.dial(uint8(i + 1)); err != nil {
			r.close()
			return nil, err
		}
	}
	for i := 0; i < warmupRounds; i++ {
		r.round()
	}
	return r, nil
}

func (r *servedRig) dial(id uint8) error {
	conn, err := netio.ListenTransport(r.spec.transport, "127.0.0.1:0", netio.WithMetrics(r.netM))
	if err != nil {
		return err
	}
	c, err := netio.Dial(conn, r.gwConn.Addr().String(), netio.ClientConfig{
		TagID:          id,
		Seed:           r.seed + int64(id),
		AttemptTimeout: attemptTimeout,
		MaxAttempts:    maxAttempts,
		Metrics:        r.netM,
	})
	if err != nil {
		conn.Close()
		return fmt.Errorf("tag %d: %w", id, err)
	}
	tc := &tagClient{id: id, conn: conn, c: c, go_: make(chan struct{}), done: make(chan submit, 1)}
	r.clients = append(r.clients, tc)
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for range tc.go_ {
			s := submit{tag: tc.id, round: tc.c.Round()}
			s.bits = bitsFor(r.seed, s.round, tc.id)
			s.start = time.Now()
			s.res, s.err = tc.c.SubmitRound(context.Background(), s.bits)
			s.end = time.Now()
			tc.done <- s
		}
	}()
	return nil
}

// round runs one closed-loop round: every tag submits, and the round ends
// when the last result is back.
func (r *servedRig) round() []submit {
	for _, tc := range r.clients {
		tc.go_ <- struct{}{}
	}
	subs := make([]submit, len(r.clients))
	for i, tc := range r.clients {
		subs[i] = <-tc.done
	}
	r.subs = append(r.subs, subs...)
	return subs
}

// run drives rounds, at least one, until the deadline and returns the
// window.
func (r *servedRig) run(d time.Duration) window {
	w := window{from: readUsage()}
	deadline := w.from.wall.Add(d)
	for w.rounds == 0 || time.Now().Before(deadline) {
		for _, s := range r.round() {
			w.latencies = append(w.latencies, ms(s.end.Sub(s.start)))
		}
		w.rounds++
	}
	w.to = readUsage()
	return w
}

// close stops the clients, the gateway and the fleet, and waits for all of
// their goroutines. It returns the gateway's exit error, if any.
func (r *servedRig) close() error {
	for _, tc := range r.clients {
		close(tc.go_)
	}
	r.wg.Wait()
	for _, tc := range r.clients {
		tc.c.Close() // Goodbye; best effort, the gateway is stopped next
	}
	var err error
	if r.cancel != nil {
		r.cancel()
		if gerr := <-r.gwDone; gerr != nil && !errors.Is(gerr, context.Canceled) {
			err = fmt.Errorf("gateway: %w", gerr)
		}
	}
	for _, tc := range r.clients {
		tc.conn.Close()
	}
	if r.gwConn != nil {
		r.gwConn.Close()
	}
	if r.fleet != nil {
		r.fleet.Close()
	}
	return err
}

// guardTrips returns the guard counters that fired.
func (r *servedRig) guardTrips() []string {
	var tripped []string
	for _, name := range guardCounters {
		if v := r.netM.Counter(name).Value(); v != 0 {
			tripped = append(tripped, fmt.Sprintf("%s=%d", name, v))
		}
	}
	return tripped
}

// checkServed is the correctness gate, run after the rig is closed: every
// result a client received must be the digest the gateway recorded for that
// tag and round, and core.ReplayRecord must reproduce the record byte for
// byte on a fresh network. It returns every problem found.
func checkServed(rec *trace.ExchangeRecord, subs []submit) []string {
	var problems []string
	for _, s := range subs {
		if s.err != nil || s.res == nil || s.res.Status != netio.RoundOK {
			continue // a failed op, counted as such; nothing to compare
		}
		if s.round >= uint64(len(rec.Rounds)) || int(s.tag)-1 >= len(rec.Rounds[s.round].Outcomes) {
			problems = append(problems, fmt.Sprintf("tag %d round %d: result for a round the record lacks", s.tag, s.round))
			continue
		}
		want := rec.Rounds[s.round].Outcomes[s.tag-1]
		if !sameOutcome(want, wireDigest(s.res.Outcome)) || s.res.Outcome.Err != "" {
			problems = append(problems, fmt.Sprintf("tag %d round %d: wire outcome differs from the recorded one", s.tag, s.round))
		}
	}
	report, err := core.ReplayRecord(rec, core.WithWorkers(checkWidth))
	if err != nil {
		return append(problems, fmt.Sprintf("replay: %v", err))
	}
	for _, m := range report.Mismatches {
		problems = append(problems, "replay: "+m.String())
	}
	return problems
}

// wireDigest maps a wire outcome onto the record's digest type.
func wireDigest(o netio.Outcome) trace.NodeOutcome {
	return trace.NodeOutcome{
		DownlinkPayload: o.DownlinkPayload,
		DownlinkErr:     o.DownlinkErr,
		DetectionRange:  o.DetectionRange,
		DetectionBin:    int(o.DetectionBin),
		DetectionSNRdB:  o.DetectionSNRdB,
		DetectionErr:    o.DetectionErr,
		UplinkBits:      o.UplinkBits,
		UplinkErr:       o.UplinkErr,
	}
}
