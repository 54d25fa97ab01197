// Command perfbench is the repository's end-to-end benchmark: served
// two-way rounds (a tag's SubmitRound to its RoundResult) over loopback UDP
// and TDMA/TCP with the real physics behind the gateway, plus radar-only
// sensing through a Fleet. It prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as the last line of standard output and
// checks every output it measures. See README.md.
//
//	perfbench --workload pair-udp --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"biscatter/internal/netio"
)

// options is one invocation.
type options struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	traceDir string
}

// report is one run's outcome.
type report struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
	info              map[string]any
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*report, error){
	"pair-udp": func(o options) (*report, error) {
		return runServed(o, servedSpec{transport: netio.TransportUDP})
	},
	"tdma-tcp": func(o options) (*report, error) {
		return runServed(o, servedSpec{transport: netio.TransportTCP, scheduled: true})
	},
	"sense-map": runSense,
}

func main() {
	var o options
	var seconds float64
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: pair-udp, tdma-tcp or sense-map")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are drawn from")
	flag.Float64Var(&seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&o.traceDir, "trace-dir", ".bench_build/trace", "directory the traced run writes its spans to")
	flag.Parse()
	run, ok := workloads[o.workload]
	if !ok || seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload pair-udp|tdma-tcp|sense-map, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	o.window = time.Duration(seconds * float64(time.Second))
	o.traced = trace == 1
	runtime.GOMAXPROCS(measureProcs)

	rep, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", o.workload, p)
	}
	info, err := json.Marshal(map[string]any{"info": rep.info})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(info))
	out, err := json.Marshal(rep.result(o.traced))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result builds the final line: every end-to-end metric, or with traced
// every per-layer metric (0 for a layer the workload does not reach).
func (r *report) result(traced bool) result {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: r.metrics[d.Name], Unit: d.Unit}
	}
	return res
}

// measureProcs is the GOMAXPROCS every set-up, timed window and stage
// replay runs at. With the physics at width 1, one P holds the whole
// process's Go code; the kernel's loopback work still runs on any CPU. On a
// 2-vCPU shared host, two Ps made round throughput bimodal from run to run
// (cross-P hand-offs of each round's goroutines).
const measureProcs = 1

// atFullWidth runs an untimed check with a P per CPU.
func atFullWidth(f func()) {
	prev := runtime.GOMAXPROCS(runtime.NumCPU())
	defer runtime.GOMAXPROCS(prev)
	f()
}

// buildRigs builds a rig n times and returns each build's set-up time. It
// keeps the last rig when keep is set and closes every other one.
func buildRigs[R interface{ close() error }](n int, keep bool, setup func() (R, error)) (R, []float64, error) {
	var rig R
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		r, err := setup()
		if err != nil {
			return rig, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if keep && i == n-1 {
			rig = r
		} else if err := r.close(); err != nil {
			return rig, nil, fmt.Errorf("teardown: %w", err)
		}
	}
	return rig, times, nil
}

// setupSeconds is setup_s: the median over the builds before the timed
// window and as many again after it. The first build also pays
// process-wide lazy initialisation, which the median keeps out; builds on
// both sides of the window sample the host's speed at two moments half a
// minute apart.
func setupSeconds[R interface{ close() error }](before []float64, setup func() (R, error)) (float64, error) {
	_, after, err := buildRigs(setups, false, setup)
	if err != nil {
		return 0, err
	}
	return quantile(append(before, after...), 0.5), nil
}

// fingerprint is the host and configuration echo every result carries.
func fingerprint(o options, transport string, groups int, rounds int) map[string]any {
	return map[string]any{
		"workload":         o.workload,
		"seed":             o.seed,
		"seconds":          o.window.Seconds(),
		"traced":           o.traced,
		"rounds":           rounds,
		"warmup_rounds":    warmupRounds,
		"setups":           setups,
		"cpu_model":        cpuModel(),
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"check_gomaxprocs": runtime.NumCPU(),
		"go_version":       runtime.Version(),
		"pool_width":       1,
		"fleet_engines":    1,
		"transport":        transport,
		"tags":             nTags,
		"frame_groups":     groups,
		"payload_bytes":    payloadBytes,
		"uplink_bits":      uplinkBits,
		"chirps_per_bit":   chirpsPerBit,
		"sense_chirps":     senseChirps,
		"link":             "loopback: traffic crossed this host's 127.0.0.1 stack, not a real link",
		"clock":            "every time is host time: monotonic wall clock, and getrusage CPU time",
	}
}

// writeSpans stores a traced run's spans and notes where in info.
func writeSpans(o options, log *spanLog, info map[string]any) error {
	path, err := log.write(o.traceDir, o.workload, o.seed)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	info["span_file"] = path
	info["spans"] = len(log.spans)
	return nil
}

// overheadPct is the traced rounds' throughput loss against their
// untraced twins, in percent, from the two sets' total round times.
func overheadPct(untraced, traced time.Duration) float64 {
	return (1 - untraced.Seconds()/traced.Seconds()) * 100
}

// accountFor is the layer-accounting check. It fills core.unattributed_ms
// and bench.layer_residual_pct from the exchange time, the fleet wait and
// the stage times, and records in info whether the stages leave more than
// maxResidualPct of the exchange unexplained (also said on standard error).
func accountFor(m map[string]float64, info map[string]any) {
	explained := m["core.fleet_wait_ms"]
	for _, st := range stageMetrics {
		explained += m[st]
	}
	un := m["core.exchange_ms"] - explained
	pct := un / m["core.exchange_ms"] * 100
	m["core.unattributed_ms"] = un
	m["bench.layer_residual_pct"] = max(pct, -pct)
	info["layer_residual_signed_pct"] = pct
	info["layer_accounting"] = "closed"
	if m["bench.layer_residual_pct"] > maxResidualPct {
		msg := fmt.Sprintf("open: the stages leave %.1f%% of core.exchange_ms unexplained (limit %d%%)", pct, maxResidualPct)
		info["layer_accounting"] = msg
		fmt.Fprintln(os.Stderr, "perfbench: layer accounting "+msg)
	}
}
