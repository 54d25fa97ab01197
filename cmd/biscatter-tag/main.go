// Command biscatter-tag runs a BiScatter backscatter node as a standalone
// process. It listens for FrameDescriptor messages from a biscatter-radar
// process, derives the envelope-detector observation its hardware would see,
// decodes the downlink packet, and answers with a TagReport plus its uplink
// ModulationPlan. Commands received over the downlink (OpSetModulation)
// retune its uplink tones — the write access that two-way backscatter
// enables.
//
//	biscatter-tag -listen 127.0.0.1:7001 -id 1
//
// Client mode (-connect) joins a biscatter-radar gateway instead: the tag
// holds a supervised session (handshake, heartbeats, ARQ retransmission with
// deterministic backoff) and submits its uplink bits each round, receiving
// the round outcome — decoded downlink payload, its own localization fix and
// demodulated uplink bits — over the wire. If the gateway evicts the session
// (e.g. after a network partition outlasts the liveness deadline) the client
// re-handshakes transparently and resumes at the gateway's current round:
//
//	biscatter-tag -connect 127.0.0.1:9100 -id 1 -rounds 5
//
// The -net-* flags inject deterministic transport faults for chaos testing.
//
// Observability: -trace-out writes one causal span tree per received frame
// (capture, decode, reply) as Chrome trace_event (.json) or JSONL. Traces
// use the radar's frame sequence number as the exchange sequence, so a
// radar-side trace of the same run correlates by exchange ID.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"path/filepath"

	"biscatter/internal/core"
	"biscatter/internal/fec"
	"biscatter/internal/fmcw"
	"biscatter/internal/netio"
	"biscatter/internal/tag"
	"biscatter/internal/telemetry"
	"biscatter/internal/trace"
)

func main() {
	sf := netio.RegisterServiceFlags(flag.CommandLine)
	faults := netio.RegisterNetFaultFlags(flag.CommandLine)
	id := flag.Int("id", 1, "tag ID")
	bits := flag.Int("bits", 5, "CSSK symbol size (must match the radar)")
	fecName := flag.String("fec", "none", "downlink FEC scheme: none, hamming or repetition (must match the radar)")
	seed := flag.Int64("seed", 7, "noise seed")
	uplink := flag.String("uplink", "telemetry", "uplink message (its bytes become uplink bits)")
	rounds := flag.Int("rounds", 0, "exit after this many frames (0 = run forever)")
	record := flag.String("record", "", "directory to record envelope captures into (trace files)")
	traceOut := flag.String("trace-out", "", "write per-frame exchange traces to this file (.json = Chrome trace_event, else JSONL)")
	flag.Parse()

	if sf.Connect != "" {
		if err := runClient(sf, faults, uint8(*id), *seed, *uplink, *rounds); err != nil {
			log.Fatal(err)
		}
		return
	}
	listen := sf.Listen
	if listen == "" {
		listen = "127.0.0.1:7001"
	}
	if err := run(listen, uint8(*id), *bits, *fecName, *seed, *uplink, *rounds, *record, *traceOut); err != nil {
		log.Fatal(err)
	}
}

// runClient joins a gateway fleet: handshake, then one SubmitRound per
// round until the bound is reached (or forever when rounds == 0).
func runClient(sf *netio.ServiceFlags, faults *netio.NetFaultProfile, id uint8, seed int64, uplink string, rounds int) error {
	listen := sf.Listen
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	conn, err := netio.ListenTransport(sf.Transport, listen, netio.WithNetFaults(faults))
	if err != nil {
		return err
	}
	defer conn.Close()
	c, err := netio.Dial(conn, sf.Connect, netio.ClientConfig{
		TagID:             id,
		Seed:              seed,
		HeartbeatInterval: sf.Heartbeat,
		Logf:              log.Printf,
	})
	if err != nil {
		return err
	}
	defer c.Close()
	log.Printf("tag %d: session %d with gateway %s, starting at round %d",
		id, c.SessionID(), sf.Connect, c.Round())

	uplinkBits := bytesToBits([]byte(uplink))
	ctx := context.Background()
	for done := 0; rounds == 0 || done < rounds; done++ {
		res, err := c.SubmitRound(ctx, uplinkBits)
		if err != nil {
			return fmt.Errorf("round %d: %w", c.Round(), err)
		}
		switch res.Status {
		case netio.RoundOK:
			log.Printf("round %d: payload %q, localized at %.3f m (SNR %.1f dB), %d uplink bits echoed",
				res.Round, res.Outcome.DownlinkPayload, res.Outcome.DetectionRange,
				res.Outcome.DetectionSNRdB, len(res.Outcome.UplinkBits))
		case netio.RoundSkipped:
			log.Printf("round %d: skipped (submission missed the round barrier)", res.Round)
		default:
			log.Printf("round %d: error %q", res.Round, res.Outcome.Err)
		}
	}
	return nil
}

func run(listen string, id uint8, bits int, fecName string, seed int64, uplink string, rounds int, record, traceOut string) error {
	// Build the same network stack the radar uses; only the tag half is
	// exercised here. The placement range is irrelevant for the tag process
	// (the radar owns the channel model).
	fecCfg, err := fec.ParseConfig(fecName)
	if err != nil {
		return err
	}
	netw, err := core.NewNetwork(core.Config{
		Nodes:      []core.NodeConfig{{ID: id, Range: 1}},
		SymbolBits: bits,
		FEC:        fecCfg,
		Seed:       seed,
	})
	if err != nil {
		return err
	}
	node := netw.Nodes()[0]

	conn, err := netio.Listen(listen)
	if err != nil {
		return err
	}
	defer conn.Close()
	log.Printf("tag %d listening on %v (symbol size %d bits)", id, conn.Addr(), bits)

	uplinkBits := bytesToBits([]byte(uplink))
	f0, f1 := node.Uplink.F0, node.Uplink.F1

	var tracer *telemetry.Tracer
	if traceOut != "" {
		tracer = telemetry.NewTracer()
		defer func() {
			if err := telemetry.WriteTraceFile(traceOut, tracer.Traces()); err != nil {
				log.Printf("trace-out: %v", err)
			}
		}()
	}

	for round := 0; rounds == 0 || round < rounds; round++ {
		msg, from, err := conn.Recv(0)
		if err != nil {
			log.Printf("recv: %v", err)
			continue
		}
		switch m := msg.(type) {
		case *netio.FrameDescriptor:
			if err := handleFrame(conn, from, netw, node, tracer, m, uplinkBits, f0, f1, record); err != nil {
				log.Printf("frame %d: %v", m.Sequence, err)
			}
		case *netio.Command:
			if m.TagID != id && m.TagID != netio.BroadcastID {
				continue
			}
			if m.Op == netio.OpSetModulation {
				f0, f1 = m.Arg0, m.Arg1
				log.Printf("retuned uplink to F0=%.0f Hz F1=%.0f Hz", f0, f1)
			}
		default:
			log.Printf("unexpected message %v from %v", msg.Type(), from)
		}
	}
	return nil
}

func handleFrame(conn *netio.Node, from *net.UDPAddr, netw *core.Network,
	node *core.Node, tracer *telemetry.Tracer, m *netio.FrameDescriptor,
	uplinkBits []bool, f0, f1 float64, record string) (err error) {

	// The radar's frame sequence is this process's exchange sequence: both
	// sides derive the same exchange ID from (seed, network 0, sequence), so
	// their traces join up offline even though neither saw the other's. The
	// tag process keeps no metrics registry, so its stages only trace.
	var reg *telemetry.Metrics
	var root *telemetry.SpanNode
	if tracer != nil {
		xs, tr := reg.Stage(core.StageExchange).BeginTrace(telemetry.NewExchangeID(netw.Config().Seed, 0, uint64(m.Sequence)), 0, uint64(m.Sequence))
		root = xs.Span()
		defer func() {
			xs.End(err)
			tracer.Collect(tr)
		}()
	}
	base := fmcw.ChirpParams{
		StartFrequency: m.StartFrequency,
		Bandwidth:      m.Bandwidth,
		SampleRate:     m.SampleRate,
		Duration:       m.Period / 2,
	}
	builder, err := fmcw.NewFrameBuilder(base, m.Period)
	if err != nil {
		return err
	}
	frame, err := builder.Build(m.Durations)
	if err != nil {
		return err
	}
	cs := reg.Stage(tag.StageCapture).Begin(root, int(node.Tag.ID))
	x := node.Tag.FrontEnd.CaptureFrame(frame, m.DownlinkSNRdB)
	cs.Span().SetAttr("samples", len(x))
	cs.End(nil)
	if record != "" {
		path := filepath.Join(record, fmt.Sprintf("frame%04d.bsct", m.Sequence))
		err := trace.SaveEnvelope(path, &trace.EnvelopeCapture{
			SampleRate:      node.Tag.FrontEnd.SampleRate,
			CenterFrequency: node.Tag.FrontEnd.CenterFrequency,
			Period:          m.Period,
			SNRdB:           m.DownlinkSNRdB,
			Samples:         x,
			Meta:            map[string]string{"tag": fmt.Sprint(node.Tag.ID)},
		})
		if err != nil {
			log.Printf("frame %d: record: %v", m.Sequence, err)
		}
	}
	ds := reg.Stage(tag.StageDecode).Begin(root, int(node.Tag.ID))
	payload, diag, derr := node.Tag.Decoder.DecodePacket(x, netw.Packet())
	ds.End(derr)
	report := &netio.TagReport{
		Sequence:      m.Sequence,
		TagID:         node.Tag.ID,
		PeriodSamples: diag.PeriodSamples,
	}
	switch {
	case derr == nil:
		report.Status = netio.StatusOK
		report.Payload = payload
		log.Printf("frame %d: decoded %q (period %.2f samples)", m.Sequence, payload, diag.PeriodSamples)
		// Downlink commands are applied before replying.
		if cmd, err := netio.DecodeCommand(payload); err == nil && cmd.Op == netio.OpSetModulation &&
			(cmd.TagID == node.Tag.ID || cmd.TagID == netio.BroadcastID) {
			log.Printf("frame %d: downlink command retunes F0 to %.0f Hz", m.Sequence, cmd.Arg0)
		}
	case diag.PeriodSamples == 0:
		report.Status = netio.StatusNoSignal
	default:
		report.Status = netio.StatusBadCRC
		log.Printf("frame %d: decode failed: %v", m.Sequence, derr)
	}
	rs := reg.Stage(stageReply).Begin(root, int(node.Tag.ID))
	defer func() { rs.End(err) }()
	if err := conn.Send(from, report); err != nil {
		return err
	}
	plan := &netio.ModulationPlan{
		Sequence:     m.Sequence,
		TagID:        node.Tag.ID,
		F0:           f0,
		F1:           f1,
		ChirpsPerBit: uint16(node.Uplink.ChirpsPerBit),
	}
	plan.SetBits(uplinkBits)
	return conn.Send(from, plan)
}

// stageReply is the tag process's one stage of its own: sending the report
// and modulation plan back to the radar.
const stageReply = "tag.reply"

func bytesToBits(data []byte) []bool {
	out := make([]bool, 0, len(data)*8)
	for _, b := range data {
		for i := 7; i >= 0; i-- {
			out = append(out, b&(1<<uint(i)) != 0)
		}
	}
	if len(out) > 8 {
		out = out[:8] // keep the demo frame length manageable
	}
	return out
}
