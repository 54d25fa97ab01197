// Command biscatter-radar runs the BiScatter access point as a standalone
// process. Each round it encodes a downlink payload into a CSSK frame,
// announces the frame to the tag process over UDP, collects the tag's
// report and modulation plan, synthesizes the backscatter observation the
// radar front-end would capture, and localizes the tag while demodulating
// its uplink bits.
//
//	biscatter-radar -tag 127.0.0.1:7001 -range 3.0 -payload "hello" -rounds 3
//
// Gateway mode (-tags N) serves a fleet of biscatter-tag client processes
// instead of the single-peer demo: the radar owns the full exchange pipeline
// and each tag submits its uplink bits over a supervised session (heartbeat
// liveness, per-session circuit breakers, bounded send queues). Every round
// is captured into a replayable exchange record:
//
//	biscatter-radar -listen 127.0.0.1:9100 -tags 3 -rounds 5 -record-out run.bsctrace
//	biscatter-tag -connect 127.0.0.1:9100 -id 1   # × N, each with its own -id
//	biscatter-sim replay run.bsctrace             # verify byte-identical
//
// The -net-* flags inject deterministic transport faults (drop, duplicate,
// reorder, corrupt, delay) for chaos testing; see also biscatter-sim chaos.
//
// Observability: -debug-addr serves live pipeline telemetry over HTTP
// (/metrics (OpenMetrics), /metrics.json, /debug/trace, /debug/vars,
// /debug/pprof/) while rounds run, -metrics-out dumps the final telemetry
// snapshot as JSON on exit, and -trace-out writes one causal span tree per
// round — including the tag round-trip over UDP — as Chrome trace_event
// (.json) or JSONL.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"time"

	"biscatter/internal/core"
	"biscatter/internal/fec"
	"biscatter/internal/netio"
	"biscatter/internal/radar"
	"biscatter/internal/tag"
	"biscatter/internal/telemetry"
	"biscatter/internal/trace"
)

func main() {
	tagAddr := flag.String("tag", "127.0.0.1:7001", "tag process UDP address")
	sf := netio.RegisterServiceFlags(flag.CommandLine)
	faults := netio.RegisterNetFaultFlags(flag.CommandLine)
	tags := flag.Int("tags", 0, "serve this many tag sessions in gateway mode (0 = single-peer demo)")
	networks := flag.Int("networks", 1, "gateway mode: multiplex this many member networks (each -tags wide) behind one gateway via a fleet")
	minTags := flag.Int("min-tags", 0, "gateway mode: wait for this many sessions before round 0 (0 = all tags)")
	recordOut := flag.String("record-out", "", "gateway mode: write the exchange record to this file")
	tagRange := flag.Float64("range", 2.6, "simulated radar–tag distance in meters")
	payload := flag.String("payload", "hello tag", "downlink payload")
	bits := flag.Int("bits", 5, "CSSK symbol size (must match the tag)")
	fecName := flag.String("fec", "none", "downlink FEC scheme: none, hamming or repetition (must match the tag)")
	rounds := flag.Int("rounds", 3, "number of exchange rounds")
	seed := flag.Int64("seed", 3, "noise seed")
	debugAddr := flag.String("debug-addr", "", "serve live telemetry over HTTP on this address (e.g. localhost:6060)")
	metricsOut := flag.String("metrics-out", "", "write the final telemetry snapshot to this JSON file")
	traceOut := flag.String("trace-out", "", "write per-round exchange traces to this file (.json = Chrome trace_event, else JSONL)")
	flag.Parse()

	if *tags > 0 {
		err := serveGateway(sf, faults, *tags, *networks, *minTags, *rounds, *seed, *payload, *recordOut, *debugAddr, *metricsOut)
		switch {
		case errors.Is(err, netio.ErrAddrInUse):
			// A clean, actionable exit: another gateway already owns the port.
			log.Fatalf("%v — is another gateway already running there?", err)
		case err != nil:
			log.Fatal(err)
		}
		return
	}
	listen := sf.Listen
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	if err := run(*tagAddr, listen, *tagRange, *payload, *bits, *fecName, *rounds, *seed, *debugAddr, *metricsOut, *traceOut); err != nil {
		log.Fatal(err)
	}
}

// serveGateway runs the distributed fleet service: a netio.Gateway
// supervising tag client sessions across one or more member networks, each
// round executed on the in-process exchange pipeline and captured into a
// replayable record per network. With -networks > 1 the members run on a
// core.Fleet — one gateway, N networks, concurrent rounds.
func serveGateway(sf *netio.ServiceFlags, faults *netio.NetFaultProfile,
	tags, networks, minTags, rounds int, seed int64, payload, recordOut, debugAddr, metricsOut string) error {

	if networks < 1 {
		return fmt.Errorf("-networks must be positive, got %d", networks)
	}
	admission, err := netio.ParseAdmissionPolicy(sf.Admission)
	if err != nil {
		return err
	}
	metrics := telemetry.New()
	flight := telemetry.NewFlightRecorder(64)
	payloadFn := func(round uint64) []byte { return []byte(payload) }

	var fleet *core.Fleet
	if networks > 1 {
		fleet = core.NewFleet(core.FleetConfig{Engines: networks, Metrics: metrics, Flight: flight})
		defer fleet.Close()
	}
	recs := make([]*core.ExchangeRecorder, networks)
	members := make([]core.GatewayMember, networks)
	for ni := 0; ni < networks; ni++ {
		cfg, err := core.GatewayDeployment(tags, sf.FrameCapacity, ni*tags, seed+int64(ni))
		if err != nil {
			return fmt.Errorf("-tags %d × -networks %d: %w", tags, networks, err)
		}
		var netw *core.Network
		var handle *core.FleetNetwork
		if fleet != nil {
			// The fleet attaches its shared metrics itself.
			handle, err = fleet.AddNetwork(cfg)
			if err != nil {
				return err
			}
			netw = handle.Network()
		} else {
			cfg.Metrics = metrics
			netw, err = core.NewNetwork(cfg)
			if err != nil {
				return err
			}
		}
		rec, err := core.NewExchangeRecorder(netw)
		if err != nil {
			return err
		}
		rec.SetMeta("tool", "biscatter-radar gateway")
		rec.SetMeta("network", fmt.Sprint(ni))
		recs[ni] = rec
		members[ni] = core.GatewayMember{Recorder: rec, Handle: handle}
	}
	mux, err := core.NewGatewayMux(payloadFn, members...)
	if err != nil {
		return err
	}
	if debugAddr != "" {
		ln, derr := telemetry.ServeDebugConfig(debugAddr, telemetry.DebugConfig{
			Metrics: metrics,
			Flight:  flight,
		})
		if derr != nil {
			return fmt.Errorf("debug server: %w", derr)
		}
		defer ln.Close()
		log.Printf("telemetry on http://%s/metrics.json", ln.Addr())
	}
	listen := sf.Listen
	if listen == "" {
		listen = "127.0.0.1:9100"
	}
	conn, err := netio.ListenTransport(sf.Transport, listen, netio.WithMetrics(metrics), netio.WithNetFaults(faults))
	if err != nil {
		return err
	}
	defer conn.Close()
	if minTags <= 0 {
		minTags = mux.Sessions()
	}
	log.Printf("gateway on %v (%s): %d networks × %d tags over %d frame groups, %d rounds, min %d sessions, admission %v",
		conn.Addr(), sf.Transport, networks, tags, mux.Groups(), rounds, minTags, admission)
	gw := netio.NewGateway(conn, netio.GatewayConfig{
		MinSessions:       minTags,
		MaxSessions:       mux.Sessions(),
		Rounds:            uint64(rounds),
		GroupOf:           mux.GroupOf,
		Admission:         admission,
		FrameTimeout:      sf.FrameTimeout,
		HeartbeatInterval: sf.Heartbeat,
		SessionTimeout:    sf.SessionTimeout,
		Metrics:           metrics,
		Flight:            flight,
		Logf:              log.Printf,
	}, mux.ExchangeFunc())
	if err := gw.Run(context.Background()); err != nil {
		return err
	}
	for ni, rec := range recs {
		record := rec.Record()
		log.Printf("gateway done: network %d recorded %d rounds", ni, len(record.Rounds))
		if recordOut == "" {
			continue
		}
		out := recordOut
		if networks > 1 {
			out = fmt.Sprintf("%s.net%d", recordOut, ni)
		}
		if err := trace.SaveExchange(out, record); err != nil {
			return fmt.Errorf("record-out: %w", err)
		}
		log.Printf("exchange record written to %s (verify with: biscatter-sim replay %s)", out, out)
	}
	if metricsOut != "" {
		if err := telemetry.WriteSnapshotFile(metricsOut, metrics.Snapshot()); err != nil {
			return fmt.Errorf("metrics-out: %w", err)
		}
	}
	return nil
}

func run(tagAddr, listen string, tagRange float64, payload string, bits int, fecName string, rounds int, seed int64, debugAddr, metricsOut, traceOut string) error {
	var metrics *telemetry.Metrics
	if debugAddr != "" || metricsOut != "" {
		metrics = telemetry.New()
	}
	var tracer *telemetry.Tracer
	if debugAddr != "" || traceOut != "" {
		tracer = telemetry.NewTracer()
	}
	fecCfg, err := fec.ParseConfig(fecName)
	if err != nil {
		return err
	}
	netw, err := core.NewNetwork(core.Config{
		Nodes:      []core.NodeConfig{{ID: 1, Range: tagRange}},
		SymbolBits: bits,
		FEC:        fecCfg,
		Seed:       seed,
		Metrics:    metrics,
	})
	if err != nil {
		return err
	}
	if debugAddr != "" {
		ln, derr := telemetry.ServeDebugConfig(debugAddr, telemetry.DebugConfig{
			Metrics: metrics,
			Tracer:  tracer,
		})
		if derr != nil {
			return fmt.Errorf("debug server: %w", derr)
		}
		defer ln.Close()
		log.Printf("telemetry on http://%s/metrics.json (also /metrics, /debug/trace, /debug/vars, /debug/pprof/)", ln.Addr())
	}
	conn, err := netio.Listen(listen)
	if err != nil {
		return err
	}
	defer conn.Close()
	peer, err := net.ResolveUDPAddr("udp", tagAddr)
	if err != nil {
		return err
	}
	log.Printf("radar on %v, tag peer %v, range %.1f m (downlink SNR %.1f dB)",
		conn.Addr(), peer, tagRange, netw.Link().DownlinkSNRdB(tagRange))

	for round := 0; round < rounds; round++ {
		if err := exchange(conn, peer, netw, metrics, tracer, uint32(round), []byte(payload), tagRange); err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
	}
	if metricsOut != "" {
		if err := telemetry.WriteSnapshotFile(metricsOut, metrics.Snapshot()); err != nil {
			return fmt.Errorf("metrics-out: %w", err)
		}
	}
	if traceOut != "" {
		if err := telemetry.WriteTraceFile(traceOut, tracer.Traces()); err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
	}
	return nil
}

func exchange(conn *netio.Node, peer *net.UDPAddr, netw *core.Network, m *telemetry.Metrics,
	tracer *telemetry.Tracer, seq uint32, payload []byte, tagRange float64) (err error) {

	cfg := netw.Config()
	// The exchange runs as a hand-driven pipeline (the tag lives in another
	// process), so the span tree is built by hand too, on the same stages
	// the in-process exchange uses. The round's sequence number doubles as
	// the exchange sequence so the radar's and tag's traces correlate by ID
	// across the two processes; the radar opens its own observe and correct
	// spans under the round's span.
	ctx := context.Background()
	var xs telemetry.StageRun
	if tracer != nil {
		var tr *telemetry.Trace
		xs, tr = m.Stage(core.StageExchange).BeginTrace(telemetry.NewExchangeID(cfg.Seed, 0, uint64(seq)), 0, uint64(seq))
		defer tracer.Collect(tr)
		ctx = telemetry.ContextWithSpan(ctx, xs.Span())
	} else {
		xs = m.Stage(core.StageExchange).Begin(nil, -1)
	}
	defer func() { xs.End(err) }()
	root := xs.Span()

	// Size the frame for the demo's worst-case uplink message (8 bits at
	// ChirpsPerBit chirps each) so every uplink bit gets a full window.
	fs := m.Stage(core.StageFrameBuild).Begin(root, -1)
	frame, err := netw.BuildDownlinkFrame(payload, 8*cfg.ChirpsPerBit)
	fs.End(err)
	if err != nil {
		return err
	}
	durs := make([]float64, len(frame.Chirps))
	for i, c := range frame.Chirps {
		durs[i] = c.Params.Duration
	}
	fd := &netio.FrameDescriptor{
		Sequence:       seq,
		StartFrequency: cfg.Preset.Chirp.StartFrequency,
		Bandwidth:      cfg.Preset.Chirp.Bandwidth,
		SampleRate:     cfg.Preset.Chirp.SampleRate,
		Period:         cfg.Period,
		DownlinkSNRdB:  netw.Link().DownlinkSNRdB(tagRange),
		Durations:      durs,
	}
	report, plan, err := roundTrip(conn, peer, fd, m.Stage(stageTagRoundTrip).Begin(root, 0))
	if err != nil {
		return err
	}
	log.Printf("frame %d: tag report %v payload=%q", seq, report.Status, report.Payload)

	// Synthesize the backscatter the radar would observe, using the tag's
	// announced plan as the switching schedule.
	ss := m.Stage(core.StageSceneBuild).Begin(root, -1)
	scene, err := planScene(netw, plan, len(frame.Chirps), tagRange)
	ss.End(err)
	if err != nil {
		return err
	}
	capt, err := netw.Radar().ObserveContext(ctx, frame, scene)
	if err != nil {
		return err
	}
	cm, grid, err := netw.Radar().CorrectedMatrixContext(ctx, capt)
	if err != nil {
		return err
	}
	matrix := radar.SubtractBackgroundMag(radar.MagnitudeMatrix(cm))
	ds := m.Stage(core.StageDetect).Begin(root, 0)
	det, err := netw.Radar().DetectTag(matrix, grid, plan.F0, cfg.Period)
	if err != nil {
		det, err = netw.Radar().DetectTag(matrix, grid, plan.F1, cfg.Period)
	}
	if err != nil {
		err = fmt.Errorf("tag not detected: %w", err)
	}
	ds.End(err)
	if err != nil {
		return err
	}
	bits := plan.GetBits()
	us := m.Stage(core.StageUplinkDemod).Begin(root, 0)
	got, err := netw.Radar().DecodeUplinkFSK(matrix, det.Bin, radar.UplinkFSKConfig{
		F0: plan.F0, F1: plan.F1,
		ChirpsPerBit: int(plan.ChirpsPerBit),
		Period:       cfg.Period,
	})
	us.Span().SetAttr("bits", len(got))
	us.End(err)
	if err != nil {
		return err
	}
	if len(got) > len(bits) {
		got = got[:len(bits)]
	}
	match, compared := 0, len(got)
	if len(bits) < compared {
		compared = len(bits)
	}
	for i := 0; i < compared; i++ {
		if got[i] == bits[i] {
			match++
		}
	}
	log.Printf("frame %d: tag localized at %.3f m (signature SNR %.1f dB), uplink %d/%d bits correct",
		seq, det.Range, det.SNRdB, match, compared)
	return nil
}

// stageTagRoundTrip is the demo's one stage of its own: announcing a frame
// to the tag process and collecting its report and modulation plan.
const stageTagRoundTrip = "tag.roundtrip"

// roundTrip announces fd to the tag and collects its report and plan
// (their order is not guaranteed), timing the wait as the stage rt.
func roundTrip(conn *netio.Node, peer *net.UDPAddr, fd *netio.FrameDescriptor, rt telemetry.StageRun) (report *netio.TagReport, plan *netio.ModulationPlan, err error) {
	defer func() { rt.End(err) }()
	if err := conn.Send(peer, fd); err != nil {
		return nil, nil, err
	}
	for report == nil || plan == nil {
		msg, _, err := conn.Recv(5 * time.Second)
		if err != nil {
			return nil, nil, fmt.Errorf("waiting for tag: %w", err)
		}
		switch m := msg.(type) {
		case *netio.TagReport:
			if m.Sequence == fd.Sequence {
				report = m
			}
		case *netio.ModulationPlan:
			if m.Sequence == fd.Sequence {
				plan = m
			}
		}
	}
	return report, plan, nil
}

// planScene is the scene the radar observes while the tag follows its
// announced plan over nChirps chirps. The plan arrives off the wire, so the
// tag's own modulator validates it: a zero bit window or an out-of-band
// tone fails the round instead of the process.
func planScene(netw *core.Network, plan *netio.ModulationPlan, nChirps int, tagRange float64) (radar.Scene, error) {
	cfg := netw.Config()
	mod, err := tag.NewModulator(tag.SchemeFSK, plan.F0, plan.F1, cfg.Period, int(plan.ChirpsPerBit))
	if err != nil {
		return radar.Scene{}, fmt.Errorf("tag plan: %w", err)
	}
	return radar.Scene{
		Clutter: cfg.Clutter,
		Tags: []radar.TagEcho{{
			Range:    tagRange,
			States:   mod.States(plan.GetBits(), cfg.Period, nChirps),
			PowerDBm: netw.Link().UplinkRxPowerDBm(tagRange),
		}},
	}, nil
}
