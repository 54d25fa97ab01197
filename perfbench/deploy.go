package main

import (
	"fmt"

	"biscatter/internal/core"
	"biscatter/internal/mac"
)

// The deployment every workload runs: the eval.GatewaySweep cell for two
// tags — ChirpsPerBit 16, tag i at 1.5 + 1.2·i m on its own FSK tone pair.
const (
	nTags        = 2
	chirpsPerBit = 16
	payloadBytes = 4
	uplinkBits   = 4
	// senseChirps is the sensing frame length of one sense-map round.
	senseChirps = 256
	// setups is how many times a run builds its rig before the timed window,
	// and again after it; setup_s is the median of all the builds.
	setups = 5
	// warmupRounds run inside every setup, before the timed window, so
	// scratch buffers, FFT plans and tone tables are grown when timing starts.
	warmupRounds = 4
	// checkWidth is the pool width of the untimed correctness replays.
	// Results are byte-identical at any width, and width 2 halves the time
	// a run spends outside its window on a 2-core host.
	checkWidth = 2
)

var deploymentTones = [nTags][2]float64{{1000, 1400}, {1800, 2200}}

// deploymentConfig returns the network configuration for seed. With
// scheduled set, the two tags sit in two TDMA frame groups of one tag each
// (mac.NewFrameSchedule(2, 1)), so one served round is a two-frame cycle.
func deploymentConfig(seed int64, scheduled bool) (core.Config, error) {
	cfg := core.Config{Seed: seed, ChirpsPerBit: chirpsPerBit}
	for i := 0; i < nTags; i++ {
		cfg.Nodes = append(cfg.Nodes, core.NodeConfig{
			ID:           uint8(i + 1),
			Range:        1.5 + 1.2*float64(i),
			ModulationF0: deploymentTones[i][0],
			ModulationF1: deploymentTones[i][1],
		})
	}
	if scheduled {
		sched, err := mac.NewFrameSchedule(nTags, 1)
		if err != nil {
			return core.Config{}, fmt.Errorf("frame schedule: %w", err)
		}
		cfg.Schedule = sched
	}
	return cfg, nil
}

// splitmix64 is the stateless mixer the inputs are drawn from.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// payloadFor is round's downlink payload: a pure function of (seed, round).
func payloadFor(seed int64, round uint64) []byte {
	return core.RandomPayload(int64(splitmix64(uint64(seed)^splitmix64(round))), payloadBytes)
}

// bitsFor is tag's uplink bits for round: a pure function of (seed, round,
// tag).
func bitsFor(seed int64, round uint64, tag uint8) []bool {
	h := splitmix64(uint64(seed) ^ splitmix64(round<<8|uint64(tag)))
	bits := make([]bool, uplinkBits)
	for i := range bits {
		bits[i] = h>>i&1 == 1
	}
	return bits
}
