package main

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"time"

	"biscatter/internal/core"
	"biscatter/internal/dsp"
	"biscatter/internal/fmcw"
	"biscatter/internal/radar"
	"biscatter/internal/trace"
)

// Stage names: the per-layer metric each stage's time feeds. Scene build
// is timed for the span log only; it stays in core.unattributed_ms.
const (
	stScene      = "core.scene_build"
	stFrameBuild = "core.frame_build_ms"
	stCapture    = "tag.capture_ms"
	stPeriod     = "tag.period_ms"
	stAlign      = "tag.align_ms"
	stSymbols    = "tag.symbols_ms"
	stObserve    = "radar.observe_ms"
	stCorrect    = "radar.correct_ms"
	stDetect     = "radar.detect_ms"
	stDemod      = "radar.demod_ms"
	stMap        = "radar.map_ms"
)

// stager is the stage replay: it re-runs recorded rounds on a fresh network
// through the public per-stage calls of core, tag and radar — the same
// calls, in the same order, that Network.Exchange and MapEnvironment make —
// and times each call. Because every random source is seeded and consumed
// in call order, the replay reproduces the served outcomes exactly, which
// the caller checks; the stage times therefore measure the computation the
// gateway ran.
type stager struct {
	n   *core.Network
	log *spanLog

	// timed selects whether the current round's stages are timed; untimed
	// rounds only advance the random sources.
	timed  bool
	round  uint64
	parent int

	busy    map[string]time.Duration
	decodes int // downlink decodes attempted in timed rounds
	frames  int // radar frames observed in timed rounds

	mag [][]float64
	bg  []float64
	sig [][]float64
	med []float64
}

// newStager builds a fresh network for cfg. The tag decoders' tone tables
// are built up front (a served network builds them inside its first round,
// before timing starts).
func newStager(cfg core.Config, log *spanLog) (*stager, error) {
	n, err := core.NewNetwork(cfg, core.WithWorkers(1))
	if err != nil {
		return nil, err
	}
	for _, node := range n.Nodes() {
		// A too-short capture returns after the tone-table warm-up.
		_, _, _ = node.Tag.Decoder.DecodeFrame(nil)
	}
	return &stager{n: n, log: log, busy: make(map[string]time.Duration)}, nil
}

// begin opens a round; timed rounds record their stages.
func (s *stager) begin(round uint64, timed bool) {
	s.round, s.timed, s.parent = round, timed, 0
	if timed {
		start := time.Now()
		s.parent = s.log.add(0, round, "replay.round", start, start)
	}
}

func (s *stager) end() { s.log.finish(s.parent, time.Now()) }

// time runs f, charging its duration to stage when the round is timed.
func (s *stager) time(stage string, f func()) {
	if !s.timed {
		f()
		return
	}
	t0 := time.Now()
	f()
	t1 := time.Now()
	s.busy[stage] += t1.Sub(t0)
	s.log.add(s.parent, s.round, stage, t0, t1)
}

// exchangeRound replays one recorded served round (an Exchange, or an
// ExchangeScheduled cycle) and returns its outcome digest.
func (s *stager) exchangeRound(in trace.RoundInput) ([]trace.NodeOutcome, error) {
	nn := len(s.n.Nodes())
	var only map[int]bool
	if in.Active != nil {
		only = make(map[int]bool, len(in.Active))
		for _, i := range in.Active {
			only[i] = true
		}
	}
	activeOf := func(group []int) []bool {
		act := make([]bool, nn)
		for _, i := range group {
			if i >= 0 && i < nn && (only == nil || only[i]) {
				act[i] = true
			}
		}
		return act
	}
	sched := s.n.Schedule()
	if !in.Scheduled || sched == nil {
		all := make([]int, nn)
		for i := range all {
			all[i] = i
		}
		return s.frameRound(in.Payload, in.UplinkBits, activeOf(all), in.MinChirps)
	}
	merged := make([]trace.NodeOutcome, nn)
	for g := 0; g < sched.Frames(); g++ {
		act := activeOf(sched.AppendGroup(nil, g))
		bits := make(map[int][]bool)
		any := false
		for i, a := range act {
			if !a {
				continue
			}
			any = true
			if b, ok := in.UplinkBits[i]; ok {
				bits[i] = b
			}
		}
		if !any {
			continue
		}
		out, err := s.frameRound(in.Payload, bits, act, in.MinChirps)
		if err != nil {
			return nil, fmt.Errorf("core: schedule group %d: %w", g, err)
		}
		for i, a := range act {
			if a {
				merged[i] = out[i]
			}
		}
	}
	return merged, nil
}

// frameRound is one radar frame of an exchange: downlink build and
// per-tag decode, scene, observation, IF correction, joint detection and
// per-tag uplink demodulation.
func (s *stager) frameRound(payload []byte, bits map[int][]bool, active []bool, minChirps int) ([]trace.NodeOutcome, error) {
	n := s.n
	nodes := n.Nodes()
	for i, b := range bits {
		if i >= 0 && i < len(active) && active[i] {
			minChirps = max(minChirps, len(b)*n.Config().ChirpsPerBit)
		}
	}
	var frame *fmcw.Frame
	var err error
	s.time(stFrameBuild, func() { frame, err = n.BuildDownlinkFrame(payload, minChirps) })
	if err != nil {
		return nil, err
	}
	out := make([]trace.NodeOutcome, len(nodes))
	for i, node := range nodes {
		if !active[i] {
			out[i].DownlinkErr = core.ErrNodeInactive.Error()
			continue
		}
		pl, derr := s.decode(node, frame)
		out[i].DownlinkPayload = pl
		out[i].DownlinkErr = errString(derr)
	}
	matrix, grid, err := s.observe(frame, bits, active)
	if err != nil {
		return nil, err
	}
	var dets []radar.Detection
	var derrs []error
	s.time(stDetect, func() { dets, derrs = s.detect(matrix, grid, active) })
	for i, node := range nodes {
		out[i].DetectionRange, out[i].DetectionBin, out[i].DetectionSNRdB = dets[i].Range, dets[i].Bin, dets[i].SNRdB
		out[i].DetectionErr = errString(derrs[i])
		b, ok := bits[i]
		if !active[i] || derrs[i] != nil || !ok || len(b) == 0 {
			continue
		}
		var got []bool
		var uerr error
		s.time(stDemod, func() { got, uerr = n.Radar().DecodeUplinkFSK(matrix, dets[i].Bin, node.Uplink) })
		if uerr == nil && len(got) > len(b) {
			got = got[:len(b)]
		}
		out[i].UplinkBits = got
		out[i].UplinkErr = errString(uerr)
	}
	return out, nil
}

// decode is one tag's downlink receive: capture, period search, chirp
// alignment, symbol classification and packet deframing.
func (s *stager) decode(node *core.Node, frame *fmcw.Frame) ([]byte, error) {
	if s.timed {
		s.decodes++
	}
	snr := s.n.Link().DownlinkSNRdB(node.Range)
	dec := node.Tag.Decoder
	var x []float64
	s.time(stCapture, func() { x = node.Tag.FrontEnd.CaptureFrame(frame, snr) })
	var period float64
	var err error
	s.time(stPeriod, func() { period, err = dec.EstimatePeriod(x) })
	if err != nil {
		return nil, err
	}
	var start int
	s.time(stAlign, func() { start = dec.AlignChirpStart(x, period) })
	var pl []byte
	s.time(stSymbols, func() { pl, _, err = s.n.Packet().DecodeStats(dec.DecodeSymbols(x, period, start)) })
	return pl, err
}

// observe builds the radar scene (active tags modulate their bits, the rest
// hold a static switch), synthesizes the IF capture and IF-corrects it into
// a background-subtracted magnitude matrix.
func (s *stager) observe(frame *fmcw.Frame, bits map[int][]bool, active []bool) ([][]float64, []float64, error) {
	n := s.n
	if s.timed {
		s.frames++
	}
	var scene radar.Scene
	var err error
	s.time(stScene, func() { scene, err = s.scene(frame, bits, active) })
	if err != nil {
		return nil, nil, err
	}
	var capt *radar.Capture
	s.time(stObserve, func() { capt = n.Radar().Observe(frame, scene) })
	var cm [][]complex128
	var grid []float64
	s.time(stCorrect, func() { cm, grid = n.Radar().CorrectedMatrix(capt) })
	var matrix [][]float64
	s.time(stDetect, func() {
		s.mag = radar.MagnitudeMatrixInto(s.mag, cm)
		matrix, s.bg = radar.SubtractBackgroundMagInto(s.mag, s.bg)
	})
	return matrix, grid, nil
}

func (s *stager) scene(frame *fmcw.Frame, bits map[int][]bool, active []bool) (radar.Scene, error) {
	cfg := s.n.Config()
	tags := make([]radar.TagEcho, len(s.n.Nodes()))
	for i, node := range s.n.Nodes() {
		states := make([]bool, len(frame.Chirps))
		if active[i] {
			var err error
			if states, err = node.Tag.UplinkStatesInto(states, bits[i], cfg.Period, len(frame.Chirps)); err != nil {
				return radar.Scene{}, err
			}
		}
		tags[i] = radar.TagEcho{Range: node.Range, States: states, PowerDBm: s.n.Link().UplinkRxPowerDBm(node.Range)}
	}
	return radar.Scene{Clutter: cfg.Clutter, Tags: tags}, nil
}

// detect is the network's joint tag search: every active tag's F0+F1
// signature profile, each range bin owned by the tag strongest there, and
// each tag's peak over its own bins against the profile median.
func (s *stager) detect(matrix [][]float64, grid []float64, active []bool) ([]radar.Detection, []error) {
	nodes := s.n.Nodes()
	dets := make([]radar.Detection, len(nodes))
	errs := make([]error, len(nodes))
	var freqs []float64
	var idx []int
	for j, node := range nodes {
		if !active[j] {
			errs[j] = core.ErrNodeInactive
			continue
		}
		freqs = append(freqs, node.Uplink.F0, node.Uplink.F1)
		idx = append(idx, j)
	}
	if len(idx) == 0 {
		return dets, errs
	}
	s.sig = s.n.Radar().SignatureProfilesInto(s.sig, matrix, freqs, s.n.Config().Period)
	profs := make([][]float64, len(nodes))
	nBins := 0
	for k, j := range idx {
		p0, p1 := s.sig[2*k], s.sig[2*k+1]
		sum := make([]float64, len(p0))
		for b := range sum {
			sum[b] = p0[b] + p1[b]
		}
		profs[j], nBins = sum, len(sum)
	}
	owner := make([]int, nBins)
	for b := range owner {
		best := -1
		for _, j := range idx {
			if best < 0 || profs[j][b] > profs[best][b] {
				best = j
			}
		}
		owner[b] = best
	}
	binWidth := grid[1] - grid[0]
	for _, j := range idx {
		prof := profs[j]
		var med float64
		med, s.med = dsp.MedianWith(s.med, prof)
		bestBin, bestVal := -1, 0.0
		for b := 0; b < nBins; b++ {
			if owner[b] == j && prof[b] > bestVal {
				bestBin, bestVal = b, prof[b]
			}
		}
		if bestBin < 0 || med <= 0 || bestVal < radar.DetectionThreshold*med {
			errs[j] = radar.ErrTagNotFound
			continue
		}
		delta := 0.0
		if bestBin > 0 && bestBin < nBins-1 {
			amps := []float64{math.Sqrt(prof[bestBin-1]), math.Sqrt(prof[bestBin]), math.Sqrt(prof[bestBin+1])}
			delta, _ = dsp.ParabolicPeak(amps, 1)
		}
		dets[j] = radar.Detection{
			Range: grid[bestBin] + delta*binWidth,
			Bin:   bestBin,
			SNRdB: 10 * math.Log10(bestVal/med),
		}
	}
	return dets, errs
}

// mapRound replays one MapEnvironment call.
func (s *stager) mapRound(chirps int) ([]radar.MapTarget, error) {
	n := s.n
	var frame *fmcw.Frame
	var err error
	s.time(stFrameBuild, func() { frame, err = n.BuildSensingFrame(chirps) })
	if err != nil {
		return nil, err
	}
	if s.timed {
		s.frames++
	}
	all := make([]bool, len(n.Nodes()))
	for i := range all {
		all[i] = true
	}
	var scene radar.Scene
	s.time(stScene, func() { scene, err = s.scene(frame, nil, all) })
	if err != nil {
		return nil, err
	}
	var capt *radar.Capture
	s.time(stObserve, func() { capt = n.Radar().Observe(frame, scene) })
	var cm [][]complex128
	var grid []float64
	s.time(stCorrect, func() { cm, grid = n.Radar().CorrectedMatrix(capt) })
	var targets []radar.MapTarget
	s.time(stMap, func() { targets, err = n.Radar().EnvironmentMap(radar.MagnitudeMatrix(cm), grid) })
	return targets, err
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sameOutcome reports whether two digests agree byte for byte, with the
// comparison core.ReplayRecord applies.
func sameOutcome(a, b trace.NodeOutcome) bool {
	return bytes.Equal(a.DownlinkPayload, b.DownlinkPayload) && a.DownlinkErr == b.DownlinkErr &&
		a.DetectionRange == b.DetectionRange && a.DetectionBin == b.DetectionBin &&
		a.DetectionSNRdB == b.DetectionSNRdB && a.DetectionErr == b.DetectionErr &&
		slices.Equal(a.UplinkBits, b.UplinkBits) && a.UplinkErr == b.UplinkErr
}
