package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"biscatter/internal/netio"
)

// TestWorkloadsReportEveryMetric runs each workload briefly, untraced and
// traced, and checks that every named metric comes out with its unit, that
// the outputs pass the correctness gate, and that the traced run's layer
// accounting ran.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	for name, run := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{workload: name, seed: 3, window: 400 * time.Millisecond, traced: traced, traceDir: t.TempDir()}
			rep, err := run(o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			res := rep.result(traced)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d problems=%v",
					name, traced, res.Correct, res.Failed, res.Attempted, rep.problems)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v, want a finite value in %s", name, traced, d.Name, v, d.Unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.Name, v.Value)
				}
			}
			if !traced {
				continue
			}
			if _, ok := rep.info["layer_accounting"].(string); !ok {
				t.Errorf("%s: the layer-accounting check did not run", name)
			}
			if res.Metrics["core.exchange_ms"].Value <= 0 {
				t.Errorf("%s: core.exchange_ms = %v, want > 0", name, res.Metrics["core.exchange_ms"].Value)
			}
			if _, err := os.Stat(rep.info["span_file"].(string)); err != nil {
				t.Errorf("%s: span file: %v", name, err)
			}
		}
	}
}

// TestGateRejectsFlippedOutcome checks that one flipped outcome bit in a
// served record fails the correctness gate.
func TestGateRejectsFlippedOutcome(t *testing.T) {
	r, err := setupServed(servedSpec{transport: netio.TransportUDP}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.close(); err != nil {
		t.Fatal(err)
	}
	rec := r.rec.Record()
	if problems := checkServed(rec, r.subs); len(problems) != 0 {
		t.Fatalf("clean record fails the gate: %v", problems)
	}
	o := &rec.Rounds[1].Outcomes[0]
	if len(o.UplinkBits) > 0 {
		o.UplinkBits[0] = !o.UplinkBits[0]
	} else {
		o.DownlinkPayload = append([]byte{1}, o.DownlinkPayload...)
	}
	if problems := checkServed(rec, r.subs); len(problems) == 0 {
		t.Fatal("a record with a flipped outcome bit passes the gate")
	}
}

// TestBenchmarkJSONMatches checks BENCHMARK.json against the workloads and
// metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	var e2e []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program reports %v", spec.PerLayer, perLayer)
	}
}
