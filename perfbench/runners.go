package main

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"slices"
	"time"

	"biscatter/internal/netio"
	"biscatter/internal/trace"
)

// runServed runs pair-udp or tdma-tcp.
func runServed(o options, spec servedSpec) (*report, error) {
	build := func() (*servedRig, error) { return setupServed(spec, o.seed) }
	r, setupTimes, err := buildRigs(setups, true, build)
	if err != nil {
		return nil, err
	}
	if !o.traced {
		w := r.run(o.window)
		rep, err := finishServed(o, r, len(r.subs)-w.rounds*nTags)
		if err != nil {
			return nil, err
		}
		w.finish(rep)
		rep.metrics["setup_s"], err = setupSeconds(setupTimes, build)
		return rep, err
	}

	// Traced: pairs of rounds, one untraced and one traced, each pair
	// followed at once by its stage replay, until the served rounds have
	// taken the window. A traced round, its untraced twin and its replay
	// thus run in the same phase of a shared host.
	log := newSpanLog()
	st, err := newStager(r.cfg, log)
	if err != nil {
		r.close()
		return nil, err
	}
	var problems []string
	replay := func(k int, rr trace.RoundRecord, timed bool) []trace.NodeOutcome {
		st.begin(uint64(k), timed)
		out, err := st.exchangeRound(rr.Input)
		st.end()
		if errString(err) != rr.Err || err == nil && len(out) != len(rr.Outcomes) {
			problems = append(problems, fmt.Sprintf("stage replay round %d: error %q, recorded %q", k, errString(err), rr.Err))
			return nil
		}
		for i := range rr.Outcomes {
			if !sameOutcome(rr.Outcomes[i], out[i]) {
				problems = append(problems, fmt.Sprintf("stage replay round %d node %d: outcome differs from the served one", k, i))
			}
		}
		return out
	}
	next := 0 // the next recorded round to replay
	for _, rr := range r.timer.recorded(next) {
		replay(next, rr, false)
		next++
	}
	from := len(r.subs)
	queueWait := func() float64 { return r.fleetM.Histogram("fleet.queue_wait.seconds").Stats().Sum }
	var subs []submit // the traced rounds' submits
	var gcs uint64
	var waited float64
	var untracedWall, tracedWall time.Duration
	replayDecodeOK, replayUplinkOK := 0, 0
	for untracedWall+tracedWall < o.window {
		lo, hi := roundSpan(r.round())
		untracedWall += hi.Sub(lo)
		r.timer.on.Store(true)
		q0, u0 := queueWait(), readUsage()
		round := r.round()
		u1, q1 := readUsage(), queueWait()
		r.timer.on.Store(false)
		gcs += u1.gcs - u0.gcs
		waited += q1 - q0
		subs = append(subs, round...)
		lo, hi = roundSpan(round)
		tracedWall += hi.Sub(lo)
		for _, rr := range r.timer.recorded(next) {
			timed := uint64(next) == round[0].round
			for node, out := range replay(next, rr, timed) {
				if !timed {
					continue
				}
				if bytes.Equal(out.DownlinkPayload, rr.Input.Payload) {
					replayDecodeOK++
				}
				if slices.Equal(out.UplinkBits, rr.Input.UplinkBits[node]) {
					replayUplinkOK++
				}
			}
			next++
		}
	}

	rep, err := finishServed(o, r, from)
	if err != nil {
		return nil, err
	}
	rep.problems = append(rep.problems, problems...)
	m := rep.metrics
	rounds := float64(len(subs) / nTags)
	var exchange, overhead, barrier time.Duration
	decodeOK, uplinkOK, okResults := 0, 0, 0
	for i := 0; i < len(subs); i += nTags {
		round := subs[i : i+nTags]
		id := round[0].round
		ex, ok := r.timer.span(id)
		if !ok {
			return nil, fmt.Errorf("round %d: exchange was not timed", id)
		}
		exchange += ex[1].Sub(ex[0])
		lo, hi := roundSpan(round)
		root := log.add(0, id, "round", lo, hi)
		log.add(root, id, "core.exchange", ex[0], ex[1])
		lastSubmit := lo
		for _, s := range round {
			log.add(root, id, "netio.submit", s.start, s.end)
			if s.start.After(ex[0]) || ex[1].After(s.end) {
				rep.problems = append(rep.problems, fmt.Sprintf("layer accounting: round %d exchange falls outside tag %d's submit", id, s.tag))
			}
			overhead += s.end.Sub(s.start) - ex[1].Sub(ex[0])
			lastSubmit = maxTime(lastSubmit, s.start)
			if s.res == nil {
				continue
			}
			if s.res.Status == netio.RoundOK {
				okResults++
			}
			if bytes.Equal(s.res.Outcome.DownlinkPayload, payloadFor(o.seed, id)) {
				decodeOK++
			}
			if slices.Equal(s.res.Outcome.UplinkBits, s.bits) {
				uplinkOK++
			}
		}
		barrier += lastSubmit.Sub(lo)
	}
	m["core.exchange_ms"] = ms(exchange) / rounds
	m["netio.overhead_ms"] = ms(overhead) / float64(len(subs))
	m["netio.barrier_wait_ms"] = ms(barrier) / rounds
	m["core.fleet_wait_ms"] = waited * 1e3 / rounds
	m["runtime.gc_per_round"] = float64(gcs) / rounds
	m["bench.trace_overhead_pct"] = overheadPct(untracedWall, tracedWall)
	codecUs, wireBytes, err := codecCost(subs)
	if err != nil {
		return nil, err
	}
	m["netio.codec_us_per_msg"] = codecUs
	m["netio.wire_bytes_per_round"] = float64(wireBytes) / rounds
	if okResults > 0 {
		m["netio.submits_per_result"] = float64(int64(len(subs))+r.netM.Counter("netio.client.retries").Value()) / float64(okResults)
	}
	m["tag.decode_ok_ratio"] = float64(decodeOK) / float64(len(subs))
	m["radar.uplink_ok_ratio"] = float64(uplinkOK) / float64(len(subs))
	if replayDecodeOK != decodeOK || replayUplinkOK != uplinkOK {
		rep.problems = append(rep.problems, fmt.Sprintf(
			"served ok counts (decode %d, uplink %d of %d) differ from the in-process oracle's (decode %d, uplink %d)",
			decodeOK, uplinkOK, len(subs), replayDecodeOK, replayUplinkOK))
	}
	return rep, finishTrace(o, st, log, rounds, rep)
}

// finishServed closes the rig and builds the report for the ops from
// r.subs[from:]: failures, the clean-run guard, the correctness gate and the
// fingerprint.
func finishServed(o options, r *servedRig, from int) (*report, error) {
	trips := r.guardTrips()
	if err := r.close(); err != nil {
		return nil, err
	}
	rep := &report{metrics: map[string]float64{}}
	subs := r.subs[from:]
	rep.attempted = len(subs)
	for _, s := range subs {
		if s.failed() {
			rep.failed++
			fmt.Fprintf(os.Stderr, "perfbench: tag %d round %d failed: %s\n", s.tag, s.round, s.describe())
		}
	}
	if len(trips) > 0 {
		rep.failed = rep.attempted
		rep.problems = append(rep.problems, fmt.Sprintf("clean-run guard tripped: %v", trips))
	}
	record := r.rec.Record()
	t0 := time.Now()
	atFullWidth(func() { rep.problems = append(rep.problems, checkServed(record, r.subs)...) })
	groups := 1
	if r.cfg.Schedule != nil {
		groups = r.cfg.Schedule.Frames()
	}
	rep.info = fingerprint(o, r.spec.transport, groups, len(subs)/nTags)
	rep.info["recorded_rounds"] = len(record.Rounds)
	rep.info["check_s"] = time.Since(t0).Seconds()
	return rep, nil
}

// finishTrace fills the stage metrics, runs the layer-accounting check and
// writes the spans.
func finishTrace(o options, st *stager, log *spanLog, rounds float64, rep *report) error {
	m := rep.metrics
	for _, name := range stageMetrics {
		m[name] = ms(st.busy[name]) / rounds
	}
	m["tag.decodes_per_round"] = float64(st.decodes) / rounds
	m["radar.frames_per_round"] = float64(st.frames) / rounds
	accountFor(m, rep.info)
	return writeSpans(o, log, rep.info)
}

// roundSpan bounds a served round: first submit to last result.
func roundSpan(round []submit) (lo, hi time.Time) {
	lo, hi = round[0].start, round[0].end
	for _, s := range round[1:] {
		if s.start.Before(lo) {
			lo = s.start
		}
		hi = maxTime(hi, s.end)
	}
	return lo, hi
}

func maxTime(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// codecCost times netio.Marshal + Unmarshal over the run's submits and
// results, and totals their encoded size.
func codecCost(subs []submit) (usPerMsg float64, wireBytes int, err error) {
	msgs := make([]netio.Message, 0, 2*len(subs))
	for _, s := range subs {
		sub := &netio.SubmitRound{Round: s.round}
		if s.res != nil {
			sub.SessionID = s.res.SessionID
			msgs = append(msgs, s.res)
		}
		sub.SetBits(s.bits)
		msgs = append(msgs, sub)
	}
	t0 := time.Now()
	for _, msg := range msgs {
		buf, err := netio.Marshal(msg)
		if err != nil {
			return 0, 0, fmt.Errorf("codec: marshal %v: %w", msg.Type(), err)
		}
		if _, err := netio.Unmarshal(buf); err != nil {
			return 0, 0, fmt.Errorf("codec: unmarshal %v: %w", msg.Type(), err)
		}
		wireBytes += len(buf)
	}
	elapsed := time.Since(t0)
	return float64(elapsed.Nanoseconds()) / 1e3 / float64(len(msgs)), wireBytes, nil
}

// runSense runs sense-map.
func runSense(o options) (*report, error) {
	build := func() (*senseRig, error) { return setupSense(o.seed) }
	r, setupTimes, err := buildRigs(setups, true, build)
	if err != nil {
		return nil, err
	}
	if !o.traced {
		w := r.run(o.window)
		rep := finishSense(o, r, len(r.calls)-w.rounds)
		t0 := time.Now()
		atFullWidth(func() { rep.problems = append(rep.problems, checkSense(r.cfg, r.calls)...) })
		rep.info["check_s"] = time.Since(t0).Seconds()
		w.finish(rep)
		rep.metrics["setup_s"], err = setupSeconds(setupTimes, build)
		return rep, err
	}

	// Traced in untraced/traced pairs, as on the served workloads. The
	// stage replay reproduces every map, so it is also this run's
	// correctness check.
	log := newSpanLog()
	st, err := newStager(r.cfg, log)
	if err != nil {
		r.close()
		return nil, err
	}
	var problems []string
	replay := func(k int, timed bool) {
		st.begin(uint64(k), timed)
		targets, err := st.mapRound(senseChirps)
		st.end()
		if c := r.calls[k]; errString(err) != errString(c.err) || !reflect.DeepEqual(targets, c.targets) {
			problems = append(problems, fmt.Sprintf("stage replay map %d differs from the served one", k))
		}
	}
	for k := range r.calls {
		replay(k, false)
	}
	from := len(r.calls)
	var gcs uint64
	var untracedWall, tracedWall, exchange, wait time.Duration
	rounds := 0.0
	for untracedWall+tracedWall < o.window {
		c := r.round()
		untracedWall += c.done.Sub(c.call)
		u0 := readUsage()
		c = r.round()
		gcs += readUsage().gcs - u0.gcs
		id := uint64(len(r.calls) - 1)
		root := log.add(0, id, "round", c.call, c.done)
		log.add(root, id, "core.fleet_wait", c.call, c.in)
		log.add(root, id, "core.exchange", c.in, c.out)
		exchange += c.out.Sub(c.in)
		wait += c.in.Sub(c.call)
		tracedWall += c.done.Sub(c.call)
		rounds++
		replay(len(r.calls)-2, false)
		replay(len(r.calls)-1, true)
	}
	rep := finishSense(o, r, from)
	rep.problems = append(rep.problems, problems...)
	m := rep.metrics
	m["core.exchange_ms"] = ms(exchange) / rounds
	m["core.fleet_wait_ms"] = ms(wait) / rounds
	m["runtime.gc_per_round"] = float64(gcs) / rounds
	m["bench.trace_overhead_pct"] = overheadPct(untracedWall, tracedWall)
	return rep, finishTrace(o, st, log, rounds, rep)
}

// finishSense closes the rig and builds the report for the maps from
// r.calls[from:].
func finishSense(o options, r *senseRig, from int) *report {
	r.close()
	rep := &report{metrics: map[string]float64{}}
	calls := r.calls[from:]
	rep.attempted = len(calls)
	for _, c := range calls {
		if senseFailed(c) {
			rep.failed++
		}
	}
	rep.info = fingerprint(o, "none (in-process)", 1, len(calls))
	return rep
}
