#pragma once

// The benchmark's workloads (see README.md for why each exists):
//   paper-fig4   direct gas::gpu_array_sort of 2500 x 1000 uniform floats
//   serve-small  async gas::serve::Server, one device, 4 x 64 requests
//   serve-mixed  async Server over a 2-device fleet; uniform / ragged / pair
//                requests whose key distribution shifts every quarter

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check.hpp"
#include "metrics.hpp"
#include "trace.hpp"

namespace gasbench {

/// What one measurement loop observed.
struct Loop {
    struct Unit {
        double done_s = 0.0;        ///< retire time, seconds since loop start
        double latency_ms = 0.0;    ///< sort call / submit -> response seen
        std::size_t elements = 0;   ///< 0 unless Ok and correct
    };
    Tally tally;
    std::vector<Unit> units;
    double wall_s = 0.0;      ///< loop wall time, first unit start to last unit seen
    double modeled_ms = 0.0;  ///< computed K40c ms (per sort / per 1000 requests)
    /// Process peak RSS once a fixed number of units has been served (the
    /// workload's kRssAfter), so a faster commit is not charged for the
    /// extra requests it fits into the same seconds.
    double peak_rss_mb = 0.0;
};

/// The end-to-end metrics of a loop, except setup_s: rates are correct
/// elements and units over the loop's wall time, latency percentiles are
/// taken over every unit.
[[nodiscard]] Metrics loop_metrics(const Loop& loop);

using Params = std::vector<std::pair<std::string, std::string>>;

class Workload {
  public:
    Workload() = default;
    Workload(const Workload&) = delete;
    Workload& operator=(const Workload&) = delete;
    virtual ~Workload() = default;
    /// Builds devices and inputs from `seed`, computes the host reference
    /// and warms up.  Timed as setup_s.
    virtual void setup(std::uint64_t seed) = 0;
    /// Runs the workload for `seconds`, checking every output.  Fills the
    /// per-layer metrics the loop itself yields (counters and stats deltas).
    virtual Loop measure(double seconds, Tracer& tracer, Metrics& layer) = 0;
    /// Traced run only: calls each layer's public functions directly on
    /// this workload's inputs, inside spans, and fills their metrics.
    /// Returns false when a probed output is wrong.
    virtual bool probe(Tracer& tracer, Metrics& layer) = 0;
    /// Run parameters recorded with every result.
    [[nodiscard]] virtual Params params() const = 0;
};

[[nodiscard]] const std::vector<std::string>& workload_names();
/// Null for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name);

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Nearest-rank percentile, q in (0, 100]; 0 for no samples.
[[nodiscard]] double percentile(std::vector<double> v, double q);

}  // namespace gasbench
