#pragma once

// The benchmark's metric catalogue: every name it prints, with its unit.
// BENCHMARK.json at the repository root lists the same names; selftest.py
// checks that the two agree.

#include <map>
#include <string>

namespace gasbench {

struct MetricDef {
    const char* name;
    const char* unit;
};

/// Printed by an untraced run (--trace 0), always measured with tracing off.
/// One "unit" of work is one gpu_array_sort call on paper-fig4 and one
/// request on the serve-* workloads.
inline constexpr MetricDef kEndToEnd[] = {
    {"elements_per_s", "1/s"},   // elements of correct units per wall second
    {"requests_per_s", "1/s"},   // correct units per wall second
    {"latency_p50_ms", "ms"},    // sort call / submit -> future ready
    {"latency_p90_ms", "ms"},
    {"modeled_ms", "ms"},        // computed K40c ms (see README.md)
    {"success_frac", "frac"},    // 1 - failed_frac
    {"peak_rss_mb", "MB"},
    {"setup_s", "s"},            // median of the run's set-ups
};

/// Printed by a traced run (--trace 1).  Per-unit values are means over the
/// traced units unless the name says p50/p99.
inline constexpr MetricDef kPerLayer[] = {
    {"core.phase1_ms", "ms"},
    {"core.phase2_ms", "ms"},
    {"core.phase3_ms", "ms"},
    {"core.phase1_modeled_ms", "ms"},
    {"core.phase2_modeled_ms", "ms"},
    {"core.phase3_modeled_ms", "ms"},
    {"core.stats_phases_wall_ms", "ms"},
    {"core.phase3_imbalance", "ratio"},
    {"core.overhead_frac", "frac"},
    {"simt.h2d_ms", "ms"},
    {"simt.d2h_ms", "ms"},
    {"simt.kernel_launches", "count"},
    {"simt.ops", "count"},
    {"simt.bytes_computed", "bytes"},
    {"simt.ops_per_byte", "ratio"},
    {"simt.device_peak_bytes", "bytes"},
    {"serve.submit_us", "us"},
    {"serve.queue_ms_p50", "ms"},
    {"serve.service_ms_p50", "ms"},
    {"serve.batch_occupancy", "count"},
    {"serve.graph_cache_hit_rate", "frac"},
    {"serve.pool_reuse_rate", "frac"},
    {"serve.cpu_fallbacks", "count"},
    {"serve.latency_p99_ms", "ms"},
    {"fleet.route_imbalance", "ratio"},
    {"fleet.steals", "count"},
    {"fleet.compute_utilization", "frac"},
    {"tune.sketch_us", "us"},
    {"tune.decisions", "count"},
    {"tune.plan_switches", "count"},
    {"baseline.cpu_sort_ms", "ms"},
    {"thrustlite.sta_wall_ms", "ms"},
    {"thrustlite.sta_modeled_ms", "ms"},
    {"simt.self_ms", "ms"},
    {"core.self_ms", "ms"},
    {"serve.self_ms", "ms"},
    {"tune.self_ms", "ms"},
    {"baseline.self_ms", "ms"},
    {"thrustlite.self_ms", "ms"},
    {"bench.self_ms", "ms"},
    {"trace.span_coverage", "frac"},
    {"trace.spans", "count"},
    {"trace_overhead.elements_per_s", "1/s"},
    {"trace_overhead.requests_per_s", "1/s"},
    {"trace_overhead.latency_p50_ms", "ms"},
    {"trace_overhead.latency_p90_ms", "ms"},
    {"trace_overhead.modeled_ms", "ms"},
    {"trace_overhead.success_frac", "frac"},
};

using Metrics = std::map<std::string, double>;

}  // namespace gasbench
