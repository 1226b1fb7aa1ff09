//go:build linux

package main

// metricDef names one metric with its unit and direction, exactly as
// BENCHMARK.json lists it (a test keeps the two in step).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the daemon would see. They are
// measured with tracing off, against the real daemon over TCP.
//
// failed_share (failed / attempted) is deliberately not in this list: it
// is 0 at the commit that introduced the benchmark, and the benchmark
// contract carries it as the result's attempted/failed/correct fields
// instead of as a metric that would always read zero.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"events_per_s", "1/s", "higher"},
	{"alarm_latency_p50_us", "us", "lower"},
	{"cpu_us_per_event", "us", "lower"},
	{"rss_peak_mb", "MB", "lower"},
}

// perLayer are the single-layer metrics of the traced run, grouped by
// the layer (this repository's module) they belong to. bench/README.md
// maps each to the end-to-end metric it should move, and where.
var perLayer = []metricDef{
	// cmd/misused, measured from outside the process.
	{"misused.cpu_us_per_event", "us", "lower"},
	{"misused.alarm_latency_p99_us", "us", "lower"},
	{"misused.alarm_latency_p999_us", "us", "lower"},
	{"misused.alarm_latency_max_us", "us", "lower"},
	{"misused.write_stall_p99_us", "us", "lower"},
	{"misused.status_rtt_p50_us", "us", "lower"},
	{"misused.bytes_in_per_event", "bytes", "lower"},
	{"misused.bytes_out_per_alarm", "bytes", "lower"},
	{"misused.log_lines", "count", "lower"},
	{"misused.start_s", "s", "lower"},
	// internal/actionlog.
	{"actionlog.intern_ns_per_event", "ns", "lower"},
	{"actionlog.intern_unknown_share", "ratio", "lower"},
	// internal/core, the engine.
	{"core.engine.events_per_s", "1/s", "higher"},
	{"core.engine.cpu_us_per_event", "us", "lower"},
	{"core.engine.submit_ns_per_event", "ns", "lower"},
	{"core.engine.submit_p99_us", "us", "lower"},
	{"core.engine.drain_wait_ms", "ms", "lower"},
	{"core.engine.allocs_per_event", "count", "lower"},
	{"core.engine.events_per_batch", "count", "higher"},
	{"core.engine.sessions_created", "count", "lower"},
	{"core.engine.evictions", "count", "lower"},
	{"core.engine.mem_bytes_per_session", "bytes", "lower"},
	{"core.engine.fill_events_per_s", "1/s", "higher"},
	// internal/core, the session monitor.
	{"core.monitor.new_session_us", "us", "lower"},
	{"core.monitor.stage_ns_per_event", "ns", "lower"},
	{"core.monitor.finish_ns_per_event", "ns", "lower"},
	{"core.monitor.alarms_per_event", "ratio", "lower"},
	// internal/ocsvm.
	{"ocsvm.route_ns_per_event", "ns", "lower"},
	{"ocsvm.voting_event_share", "ratio", "lower"},
	// internal/scorer and the backends behind it.
	{"scorer.advance_ns_per_event", "ns", "lower"},
	{"baseline.ngram.likelihood_ns", "ns", "lower"},
	{"lm.advance_b1_us_per_event", "us", "lower"},
	{"lm.advance_b64_us_per_event", "us", "lower"},
	{"nn.step_batch64_us", "us", "lower"},
	{"tensor.matmul_nt_ns_per_call", "ns", "lower"},
	{"tensor.matmul_flops_per_event", "count", "lower"},
	{"tensor.weight_bytes_per_step", "bytes", "lower"},
	// internal/core, compaction.
	{"core.compact.compact_us_per_session", "us", "lower"},
	{"core.compact.rehydrate_us_per_session", "us", "lower"},
	{"core.compact.snapshot_bytes", "bytes", "lower"},
	{"core.compact.rehydrations_per_event", "ratio", "higher"},
	{"core.compact.engine_compact_all_ms", "ms", "lower"},
	// Set-up: logsim, lda, core.train, core.store.
	{"logsim.generate_s", "s", "lower"},
	{"lda.cluster_s", "s", "lower"},
	{"core.train_s", "s", "lower"},
	{"ocsvm.train_s", "s", "lower"},
	{"lm.train_s", "s", "lower"},
	{"core.store.save_s", "s", "lower"},
	{"core.store.verify_load_s", "s", "lower"},
	// The benchmark's own honesty checks.
	{"bench.generator_lag_p99_us", "us", "lower"},
	{"bench.trace_overhead_share", "ratio", "lower"},
}

// value is one reported measurement.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark contract's last-line JSON object.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// collect builds the metrics map for defs from measured values; a
// metric the run did not produce is a programming error.
func collect(defs []metricDef, measured map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := measured[d.name]
		if !ok {
			panic("bench: metric " + d.name + " was not measured")
		}
		out[d.name] = value{Value: v, Unit: d.unit}
	}
	return out
}
