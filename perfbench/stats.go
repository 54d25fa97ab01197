package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// usage is a point-in-time reading of the process's resource counters.
type usage struct {
	wall   time.Time
	cpu    time.Duration // user + system CPU of the whole process
	allocs uint64        // cumulative heap bytes allocated
	gcs    uint64        // completed GC cycles
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// readUsage samples the counters. runtime/metrics reads without stopping
// the world, so taking a reading does not disturb the window it bounds.
func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	metrics.Read(runtimeSamples)
	return usage{
		wall:   time.Now(),
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs: runtimeSamples[0].Value.Uint64(),
		gcs:    runtimeSamples[1].Value.Uint64(),
	}
}

// window is one timed stretch of closed-loop rounds.
type window struct {
	from, to usage
	rounds   int
	// latencies holds one sample per op (per tag submit, or per map), in ms.
	latencies []float64
}

// finish fills rep's metrics with the window's end-to-end metrics. The
// median latency is measured too, but goes to info with its sample count:
// on a shared host it jumps between the host's speeds from run to run, so
// it can hold no bound (README.md, Run-to-run spread).
func (w window) finish(rep *report) {
	r := float64(w.rounds)
	rep.metrics = map[string]float64{
		"rounds_per_s":       r / w.to.wall.Sub(w.from.wall).Seconds(),
		"round_p90_ms":       quantile(w.latencies, 0.90),
		"cpu_ms_per_round":   ms(w.to.cpu-w.from.cpu) / r,
		"alloc_kb_per_round": float64(w.to.allocs-w.from.allocs) / 1024 / r,
	}
	rep.info["round_p50_ms"] = quantile(w.latencies, 0.50)
	rep.info["latency_samples"] = len(w.latencies)
}

// quantile is the linearly interpolated q-quantile of xs (xs is not
// modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
