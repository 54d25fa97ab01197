package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"biscatter/internal/core"
	"biscatter/internal/radar"
)

// senseCall is one MapEnvironment call through FleetNetwork.Do: call is
// when the caller submitted it, in/out bound the closure on the engine.
type senseCall struct {
	call, in, out, done time.Time
	targets             []radar.MapTarget
	err                 error
}

// senseRig is a one-engine fleet holding the deployment's network, driven
// by one in-process caller.
type senseRig struct {
	cfg   core.Config
	fleet *core.Fleet
	h     *core.FleetNetwork
	calls []senseCall // every call of the rig's life, in order
}

func setupSense(seed int64) (*senseRig, error) {
	cfg, err := deploymentConfig(seed, false)
	if err != nil {
		return nil, err
	}
	r := &senseRig{cfg: cfg, fleet: core.NewFleet(core.FleetConfig{Engines: 1}, core.WithWorkers(1))}
	if r.h, err = r.fleet.AddNetwork(cfg); err != nil {
		r.fleet.Close()
		return nil, err
	}
	for i := 0; i < warmupRounds; i++ {
		r.round()
	}
	return r, nil
}

func (r *senseRig) round() senseCall {
	var c senseCall
	c.call = time.Now()
	c.err = r.h.Do(context.Background(), func(ctx context.Context, n *core.Network) error {
		c.in = time.Now()
		var err error
		c.targets, err = n.MapEnvironmentContext(ctx, senseChirps)
		c.out = time.Now()
		return err
	})
	c.done = time.Now()
	r.calls = append(r.calls, c)
	return c
}

func (r *senseRig) run(d time.Duration) window {
	w := window{from: readUsage()}
	deadline := w.from.wall.Add(d)
	for w.rounds == 0 || time.Now().Before(deadline) {
		c := r.round()
		w.latencies = append(w.latencies, ms(c.done.Sub(c.call)))
		w.rounds++
	}
	w.to = readUsage()
	return w
}

func (r *senseRig) close() error {
	r.fleet.Close()
	return nil
}

// senseFailed applies the op failure rule to a map: an error, or a map
// that found nothing in a scene that always holds clutter.
func senseFailed(c senseCall) bool { return c.err != nil || len(c.targets) == 0 }

// checkSense is the sensing correctness gate: a fresh standalone network
// with the same configuration must reproduce every map the fleet returned,
// call for call.
func checkSense(cfg core.Config, calls []senseCall) []string {
	oracle, err := core.NewNetwork(cfg, core.WithWorkers(checkWidth))
	if err != nil {
		return []string{fmt.Sprintf("oracle network: %v", err)}
	}
	var problems []string
	for i, c := range calls {
		want, err := oracle.MapEnvironment(senseChirps)
		if errString(err) != errString(c.err) || !reflect.DeepEqual(want, c.targets) {
			problems = append(problems, fmt.Sprintf("map %d differs from the in-process oracle", i))
		}
	}
	return problems
}
