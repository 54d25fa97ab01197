package main

// metricDef names one reported metric; BENCHMARK.json lists the same
// names, units and directions.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd is what a user of the served system sees, measured with tracing
// off. A round is one served round (both tags' results back), or one map
// on sense-map.
var endToEnd = []metricDef{
	{"rounds_per_s", "1/s", "higher"},
	{"round_p90_ms", "ms", "lower"},
	{"cpu_ms_per_round", "ms", "lower"},
	{"alloc_kb_per_round", "KiB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer is what the traced run reports, per traced round unless the
// name says otherwise. A layer a workload does not reach reads 0. README.md
// gives the end-to-end metric each one should move, and on which workload.
var perLayer = []metricDef{
	{"netio.overhead_ms", "ms", "lower"},
	{"netio.barrier_wait_ms", "ms", "lower"},
	{"netio.codec_us_per_msg", "us", "lower"},
	{"netio.wire_bytes_per_round", "bytes", "lower"},
	{"netio.submits_per_result", "ratio", "lower"},
	{"core.exchange_ms", "ms", "lower"},
	{"core.fleet_wait_ms", "ms", "lower"},
	{"core.frame_build_ms", "ms", "lower"},
	{"core.unattributed_ms", "ms", "lower"},
	{"tag.capture_ms", "ms", "lower"},
	{"tag.period_ms", "ms", "lower"},
	{"tag.align_ms", "ms", "lower"},
	{"tag.symbols_ms", "ms", "lower"},
	{"tag.decodes_per_round", "count", "lower"},
	{"tag.decode_ok_ratio", "ratio", "higher"},
	{"radar.observe_ms", "ms", "lower"},
	{"radar.correct_ms", "ms", "lower"},
	{"radar.detect_ms", "ms", "lower"},
	{"radar.demod_ms", "ms", "lower"},
	{"radar.map_ms", "ms", "lower"},
	{"radar.frames_per_round", "count", "lower"},
	{"radar.uplink_ok_ratio", "ratio", "higher"},
	{"runtime.gc_per_round", "count", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
	{"bench.layer_residual_pct", "%", "lower"},
}

// stageMetrics are the per-layer metrics the stage replay times; with the
// fleet wait and core.unattributed_ms they add up to core.exchange_ms.
var stageMetrics = []string{
	stFrameBuild, stCapture, stPeriod, stAlign, stSymbols,
	stObserve, stCorrect, stDetect, stDemod, stMap,
}

// maxResidualPct bounds core.unattributed_ms as a share of
// core.exchange_ms: the named stages must account for the rest.
const maxResidualPct = 10
