package eval

import (
	"context"
	"fmt"
	"time"

	"biscatter/internal/core"
	"biscatter/internal/mac"
	"biscatter/internal/netio"
)

// ServedPoint is one loopback run of the served stack: a gateway serving a
// (TDMA-scheduled past 4 tags) fleet over one transport under seeded
// transport loss, conformance-checked by replaying the captured record
// against the in-process oracle. It feeds both the distributed and the
// gateway table.
type ServedPoint struct {
	// Tags is the fleet size.
	Tags int
	// Transport is the session transport (udp or tcp).
	Transport string
	// Drop is the per-datagram drop probability on every endpoint.
	Drop float64
	// Groups is the TDMA cycle length (1 = unscheduled single frame).
	Groups int
	// Rounds is the number of rounds the gateway served.
	Rounds int
	// Completed counts client-side RoundOK results (out of Tags×Rounds).
	Completed int
	// UplinkBits totals the uplink bits delivered across all RoundOK results.
	UplinkBits int
	// Goodput is UplinkBits over the wall-clock run, in bit/s.
	Goodput float64
	// AnalyticAggregate is the schedule's aggregate air-rate bound in bit/s
	// (mac.Throughput over the deployment's slow-time parameters) — an
	// upper bound the serving layer cannot beat, only approach.
	AnalyticAggregate float64
	// GatewayRetries counts retransmitted submissions absorbed idempotently.
	GatewayRetries int64
	// ClientRetries counts client-side ARQ retransmissions.
	ClientRetries int64
	// Evicted counts sessions lost to the liveness deadline.
	Evicted int64
	// FaultsInjected totals dropped+duplicated+reordered+corrupted datagrams.
	FaultsInjected int64
	// ReplayOK reports byte-identical replay of the captured record.
	ReplayOK bool
	// Elapsed is the wall-clock serving time.
	Elapsed time.Duration
}

// ServedSweep runs one point on core.Loopback: tags sessions over
// transport for rounds rounds, 4 tags per frame group, every endpoint
// impaired with the given drop probability (plus light reordering and
// duplication so impairments compose).
func ServedSweep(tags, rounds int, transport string, drop float64, o Options) (ServedPoint, error) {
	cfg, err := core.GatewayDeployment(tags, 4, 0, o.Seed)
	if err != nil {
		return ServedPoint{}, err
	}
	cfg.ChirpsPerBit, cfg.Workers, cfg.Metrics = 16, 1, o.Metrics
	lb := core.Loopback{Config: cfg, Transport: transport, Rounds: rounds}
	if drop > 0 {
		lb.Faults = &netio.NetFaultProfile{Seed: o.Seed, Drop: drop, Reorder: drop / 2, Duplicate: drop / 4}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	res, err := lb.Run(ctx)
	if err != nil {
		return ServedPoint{}, err
	}

	m := res.Metrics
	pt := ServedPoint{
		Tags:           tags,
		Transport:      transport,
		Drop:           drop,
		Groups:         1,
		Rounds:         len(res.Record.Rounds),
		GatewayRetries: m.Counter("netio.retries").Value(),
		ClientRetries:  m.Counter("netio.client.retries").Value(),
		Evicted:        m.Counter("netio.evicted").Value(),
		FaultsInjected: res.FaultsInjected(),
		ReplayOK:       res.Replay.OK(),
		Elapsed:        res.Elapsed,
	}
	sched := cfg.Schedule
	if sched != nil {
		pt.Groups = sched.Frames()
	} else if sched, err = mac.NewFrameSchedule(tags, tags); err != nil {
		return ServedPoint{}, err
	}
	pt.AnalyticAggregate = sched.Throughput(cfg.ChirpsPerBit, res.Record.Spec.Period).AggregateBitRate
	for _, rs := range res.Results {
		for _, r := range rs {
			if r.Status == netio.RoundOK {
				pt.Completed++
				pt.UplinkBits += len(r.Outcome.UplinkBits)
			}
		}
	}
	if s := pt.Elapsed.Seconds(); s > 0 {
		pt.Goodput = float64(pt.UplinkBits) / s
	}
	return pt, nil
}

// Distributed sweeps the distributed gateway service across transport loss
// rates: the robustness claim is that a lossy control plane degrades only
// liveness (retries, wall-clock), never correctness — every point's record
// must replay byte-identically against the in-process oracle.
func Distributed(o Options) (*Result, error) {
	o = o.withDefaults()
	const tags = 3
	rounds := o.Trials
	if rounds > 8 {
		rounds = 8 // each round is a full exchange; keep the sweep interactive
	}
	tbl := Table{
		Title: fmt.Sprintf("Distributed — loopback gateway, %d tags × %d rounds under transport loss", tags, rounds),
		Columns: []string{"drop", "rounds", "completed", "gw retries",
			"client retries", "evicted", "faults", "replay", "wall (s)"},
	}
	note := "every loss point replayed byte-identically: transport faults cost retries and wall-clock, never correctness"
	for _, drop := range []float64{0, 0.10, 0.20} {
		pt, err := ServedSweep(tags, rounds, netio.TransportUDP, drop, o)
		if err != nil {
			return nil, err
		}
		replay := "OK"
		if !pt.ReplayOK {
			replay, note = "DIVERGED", "REPLAY DIVERGED — the distributed pipeline is not conformant"
		}
		tbl.AddRow(
			fmt.Sprintf("%.0f%%", pt.Drop*100),
			fmt.Sprintf("%d", pt.Rounds),
			fmt.Sprintf("%d/%d", pt.Completed, pt.Tags*pt.Rounds),
			fmt.Sprintf("%d", pt.GatewayRetries),
			fmt.Sprintf("%d", pt.ClientRetries),
			fmt.Sprintf("%d", pt.Evicted),
			fmt.Sprintf("%d", pt.FaultsInjected),
			replay,
			fmt.Sprintf("%.1f", pt.Elapsed.Seconds()),
		)
	}
	return &Result{
		ID:          "distributed",
		Description: "distributed gateway service under seeded transport faults (conformance vs in-process oracle)",
		Tables:      []Table{tbl},
		Notes:       []string{note},
	}, nil
}

// Gateway sweeps the scaled serving layer across fleet sizes and stream
// transports: the capacity claim is that TDMA frame scheduling lets one
// gateway serve fleets past the tone-table limit on either transport, with
// goodput tracking the schedule's analytic aggregate bound and every cell
// still replaying byte-identically.
func Gateway(o Options) (*Result, error) {
	o = o.withDefaults()
	rounds := o.Trials
	if rounds > 3 {
		rounds = 3 // each round is a full scheduled cycle across all groups
	}
	tbl := Table{
		Title: fmt.Sprintf("Gateway capacity — loopback fleet × transport, %d rounds each", rounds),
		Columns: []string{"tags", "transport", "groups", "completed",
			"uplink bits", "goodput (bit/s)", "analytic (bit/s)", "replay", "wall (s)"},
	}
	note := "every fleet×transport cell replayed byte-identically: scheduling and transport choice move goodput, never correctness"
	for _, tags := range []int{4, 8, 16} {
		for _, transport := range []string{netio.TransportUDP, netio.TransportTCP} {
			pt, err := ServedSweep(tags, rounds, transport, 0, o)
			if err != nil {
				return nil, err
			}
			replay := "OK"
			if !pt.ReplayOK {
				replay, note = "DIVERGED", "REPLAY DIVERGED — the scaled serving layer is not conformant"
			}
			tbl.AddRow(
				fmt.Sprintf("%d", pt.Tags),
				pt.Transport,
				fmt.Sprintf("%d", pt.Groups),
				fmt.Sprintf("%d/%d", pt.Completed, pt.Tags*pt.Rounds),
				fmt.Sprintf("%d", pt.UplinkBits),
				fmt.Sprintf("%.1f", pt.Goodput),
				fmt.Sprintf("%.1f", pt.AnalyticAggregate),
				replay,
				fmt.Sprintf("%.1f", pt.Elapsed.Seconds()),
			)
		}
	}
	return &Result{
		ID:          "gateway",
		Description: "scaled gateway capacity: TDMA-scheduled fleets vs goodput per stream transport",
		Tables:      []Table{tbl},
		Notes:       []string{note},
	}, nil
}
