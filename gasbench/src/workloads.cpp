#include "workloads.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>

#include "baseline/cpu_sort.hpp"
#include "baseline/sta_sort.hpp"
#include "core/gpu_array_sort.hpp"
#include "core/phases.hpp"
#include "core/plan.hpp"
#include "fleet/fleet.hpp"
#include "serve/server.hpp"
#include "simt/device.hpp"
#include "simt/device_buffer.hpp"
#include "tune/sketch.hpp"
#include "workload/generators.hpp"

namespace gasbench {

namespace {

using Clock = std::chrono::steady_clock;
using workload::Distribution;

constexpr std::size_t kInFlight = 32;  // closed-loop window of the serve-* client
constexpr std::size_t kProbeSorts = 5;  // decomposed sorts in a paper-fig4 probe

double ms_since(Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Confines the calling thread, and every thread it starts from now on, to
/// the first `n` CPUs it may run on (all of them if it may use fewer),
/// under SCHED_BATCH; returns them as a list like "0,1".  Every workload
/// runs this way, on fewer CPUs than a 4-CPU host has.  A shared virtual
/// host takes CPU time from a guest that keeps all its CPUs busy, and every
/// wake-up of an idle CPU costs whatever the host is busy with at that
/// moment: on all 4 CPUs, requests/s on serve-small varied threefold and
/// sorts/s on paper-fig4 by a quarter between runs of the same code.
/// SCHED_BATCH stops a woken server thread from preempting the serve-*
/// client halfway through a round of submits, so batches no longer form at
/// the kernel's whim: with preemption, serve-small's modeled_ms (which
/// follows the batching) spread 0.22 between runs.
std::string pin_to_cpus(unsigned n) {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
        throw std::runtime_error("cannot read the CPUs this process may use");
    }
    cpu_set_t chosen;
    CPU_ZERO(&chosen);
    std::string list;
    for (int cpu = 0; cpu < CPU_SETSIZE && n > 0; ++cpu) {
        if (!CPU_ISSET(cpu, &allowed)) continue;
        CPU_SET(cpu, &chosen);
        list += (list.empty() ? "" : ",") + std::to_string(cpu);
        --n;
    }
    const sched_param prio{};
    if (sched_setaffinity(0, sizeof(chosen), &chosen) != 0 ||
        sched_setscheduler(0, SCHED_BATCH, &prio) != 0) {
        throw std::runtime_error("cannot pin the benchmark to CPUs " + list);
    }
    return list;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0) {
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + a * 0xBF58476D1CE4E5B9ull + b + 1;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/// Runs `f` inside a span named `name` and returns its bench-timed wall ms
/// (timed whether or not the tracer is on).
template <typename F>
double timed(Tracer& tracer, const char* name, F&& f, std::uint64_t request = 0) {
    const ScopedSpan span(tracer, name, request);
    const auto t0 = Clock::now();
    f();
    return ms_since(t0);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double mean(const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    double s = 0.0;
    for (double x : v) s += x;
    return s / static_cast<double>(v.size());
}

/// Kernel-log totals over [from, log end): launch count, ops, computed bytes.
struct KernelTotals {
    double launches = 0.0;
    double ops = 0.0;
    double bytes = 0.0;
    void add(const simt::Device& dev, std::size_t from) {
        const auto& log = dev.kernel_log();
        for (std::size_t i = from; i < log.size(); ++i) {
            launches += 1.0;
            ops += static_cast<double>(log[i].totals.ops + log[i].totals.shared_accesses);
            bytes += log[i].traffic_bytes;
        }
    }
    void to_metrics(Metrics& m, double units) const {
        const double u = std::max(units, 1.0);
        m["simt.kernel_launches"] = launches / u;
        m["simt.ops"] = ops / u;
        m["simt.bytes_computed"] = bytes / u;
        m["simt.ops_per_byte"] = bytes > 0.0 ? ops / bytes : 0.0;
    }
};

// ---------------------------------------------------------------------------
// Layer probes shared by every workload (traced run only).

/// Accumulates per-unit layer timings over several probed sorts.
struct ProbeTotals {
    std::vector<double> phase_ms[3], phase_modeled_ms[3], h2d_ms, d2h_ms, imbalance,
        overhead;
    /// Time covered by the layer spans of each decomposed sort, and the wall
    /// time of whole gas::gpu_array_sort calls on the same input.
    std::vector<double> layer_spans_ms, whole_sort_ms;

    void to_metrics(Metrics& m) const {
        for (int p = 0; p < 3; ++p) {
            const std::string k = "core.phase" + std::to_string(p + 1);
            m[k + "_ms"] = mean(phase_ms[p]);
            m[k + "_modeled_ms"] = mean(phase_modeled_ms[p]);
        }
        m["core.phase3_imbalance"] = mean(imbalance);
        m["core.overhead_frac"] = mean(overhead);
        m["simt.h2d_ms"] = mean(h2d_ms);
        m["simt.d2h_ms"] = mean(d2h_ms);
        m["trace.span_coverage"] =
            ratio(percentile(layer_spans_ms, 50), percentile(whole_sort_ms, 50));
    }
};

/// One sort split at its layer boundaries: allocate, upload, plan, the three
/// phases of core/phases.hpp, download, free -- the same calls, in the same
/// order, as gas::sort_arrays_on_device's loop path, each in its own span
/// under one root span.  Returns false when the output differs from
/// `expected`.
bool probe_sort(simt::Device& dev, std::span<const float> input, std::size_t num_arrays,
                std::size_t array_size, std::span<const float> expected, Tracer& tracer,
                std::uint64_t request, ProbeTotals& acc) {
    const gas::Options opts;
    std::vector<float> out(input.size());
    tracer.open("bench.sort", request);
    std::optional<simt::DeviceBuffer<float>> data, splitters, scratch;
    std::optional<simt::DeviceBuffer<std::uint32_t>> sizes;
    gas::SortPlan plan;
    std::size_t scratch_rows = 0;
    const std::size_t in_use_before = dev.memory().bytes_in_use();
    timed(tracer, "core.make_plan", [&] {
        plan = gas::make_plan(array_size, opts, dev.props(), sizeof(float));
    });
    if (plan.buckets == 1) {
        // gpu_array_sort's single-bucket path has no phases 1-2 to split.
        tracer.close();
        throw std::logic_error("probe_sort: single-bucket shapes are not probed");
    }
    timed(tracer, "simt.alloc", [&] {
        data.emplace(dev, num_arrays * array_size);
        splitters.emplace(dev, num_arrays * plan.splitters_per_array);
        sizes.emplace(dev, num_arrays * plan.buckets);
        if (!plan.array_fits_shared) {
            const unsigned conc = dev.cost_model().blocks_per_sm(plan.block_threads, 0);
            scratch_rows = std::min<std::size_t>(
                num_arrays, std::max<std::size_t>(
                                static_cast<std::size_t>(dev.props().sm_count) * conc,
                                dev.host_workers()));
            scratch.emplace(dev, scratch_rows * array_size);
        } else {
            scratch.emplace();
        }
    });
    acc.h2d_ms.push_back(timed(tracer, "simt.h2d", [&] { simt::copy_to_device(input, *data); }));
    const auto span = data->span().subspan(0, num_arrays * array_size);
    simt::KernelStats k[3];
    acc.phase_ms[0].push_back(timed(tracer, "core.phase1", [&] {
        k[0] = gas::detail::splitter_phase<float>(dev, span, num_arrays, plan,
                                                  splitters->span());
    }));
    acc.phase_ms[1].push_back(timed(tracer, "core.phase2", [&] {
        k[1] = gas::detail::bucket_phase<float>(dev, span, num_arrays, plan, opts,
                                                splitters->span(), sizes->span(),
                                                scratch->span(), scratch_rows);
    }));
    acc.phase_ms[2].push_back(timed(tracer, "core.phase3", [&] {
        k[2] = gas::detail::sort_phase<float>(dev, span, num_arrays, plan, sizes->span(),
                                              opts);
    }));
    acc.d2h_ms.push_back(
        timed(tracer, "simt.d2h", [&] { simt::copy_to_host(*data, std::span<float>(out)); }));
    const std::size_t data_bytes = num_arrays * array_size * sizeof(float);
    const std::size_t footprint = dev.memory().bytes_in_use() - in_use_before;
    timed(tracer, "simt.free", [&] {
        scratch.reset();
        sizes.reset();
        splitters.reset();
        data.reset();
    });
    const Tracer::Closed root = tracer.close();
    for (int p = 0; p < 3; ++p) acc.phase_modeled_ms[p].push_back(k[p].modeled_ms);
    acc.imbalance.push_back(k[2].imbalance);
    acc.overhead.push_back(static_cast<double>(footprint - data_bytes) /
                           static_cast<double>(data_bytes));
    acc.layer_spans_ms.push_back(root.child_us / 1e3);
    return same_bytes(out, expected);
}

/// baseline::cpu_sort_arrays (single-threaded std::sort per row) on a copy.
bool probe_cpu_sort(std::span<const float> input, std::size_t num_arrays,
                    std::size_t array_size, std::span<const float> expected, Tracer& tracer,
                    std::vector<double>& ms) {
    std::vector<float> tmp(input.begin(), input.end());
    ms.push_back(timed(tracer, "baseline.cpu_sort", [&] {
        (void)baseline::cpu_sort_arrays(tmp, num_arrays, array_size);
    }));
    return same_bytes(tmp, expected);
}

/// sta::sta_sort, the paper's tagged-Thrust comparator, on a copy.
bool probe_sta(simt::Device& dev, std::span<const float> input, std::size_t num_arrays,
               std::size_t array_size, std::span<const float> expected, Tracer& tracer,
               std::vector<double>& wall_ms, std::vector<double>& modeled_ms) {
    std::vector<float> tmp(input.begin(), input.end());
    sta::StaStats st;
    wall_ms.push_back(timed(tracer, "thrustlite.sta_sort", [&] {
        st = sta::sta_sort(dev, tmp, num_arrays, array_size);
    }));
    modeled_ms.push_back(st.modeled_ms);
    return same_bytes(tmp, expected);
}

/// Zero for every per-layer metric a workload does not exercise.
void zero_fill(Metrics& m, std::initializer_list<const char*> names) {
    for (const char* n : names) m.emplace(n, 0.0);
}

// ---------------------------------------------------------------------------
// paper-fig4

class PaperFig4 final : public Workload {
  public:
    static constexpr std::size_t kArrays = 2500;
    static constexpr std::size_t kSize = 1000;
    static constexpr std::uint64_t kRssAfter = 10;  // sorts
    // Two host workers on two CPUs (see pin_to_cpus).  Interleaved in the
    // same minutes, 10 s runs with 4 workers on 4 CPUs read a p90 of 127 to
    // 203 ms; with 2 on 2, 245 to 270 ms.
    static constexpr unsigned kWorkers = 2;

    void setup(std::uint64_t seed) override {
        seed_ = seed;
        cpus_ = pin_to_cpus(kWorkers);
        dev_ = std::make_unique<simt::Device>(simt::tesla_k40c(),
                                              simt::DeviceMemory::Mode::Backed, kWorkers);
        dev_->set_exec_mode(simt::ExecMode::Warp);
        input_ = workload::make_dataset(kArrays, kSize, Distribution::Uniform, seed).values;
        expected_ = sorted_rows(input_, kArrays, kSize);
        work_ = input_;
        (void)gas::gpu_array_sort(*dev_, work_, kArrays, kSize, opts_);
        if (!same_bytes(work_, expected_)) {
            throw std::runtime_error("paper-fig4: warm-up sort differs from std::sort");
        }
        dev_->clear_kernel_log();
    }

    Loop measure(double seconds, Tracer& tracer, Metrics& layer) override {
        Loop loop;
        KernelTotals kt;
        std::vector<double> modeled, phases_wall;
        gas::SortStats stats;
        const auto t_start = Clock::now();
        std::uint64_t i = 0;
        traced_sort_ms_.clear();
        while (ms_since(t_start) < seconds * 1e3) {
            timed(tracer, "bench.copy",
                  [&] { std::copy(input_.begin(), input_.end(), work_.begin()); });
            bool status_ok = true;
            const double ms = timed(tracer, "core.gpu_array_sort", [&] {
                try {
                    stats = gas::gpu_array_sort(*dev_, work_, kArrays, kSize, opts_);
                } catch (const std::exception&) {
                    status_ok = false;
                }
            }, i);
            bool out_ok = false;
            timed(tracer, "bench.check", [&] { out_ok = same_bytes(work_, expected_); });
            loop.tally.add(status_ok, out_ok);
            loop.units.push_back(
                {ms_since(t_start) / 1e3, ms, status_ok && out_ok ? kArrays * kSize : 0});
            if (tracer.enabled()) traced_sort_ms_.push_back(ms);
            if (loop.tally.attempted == kRssAfter) loop.peak_rss_mb = peak_rss_mb();
            if (status_ok) {
                modeled.push_back(stats.modeled_total_ms());
                phases_wall.push_back(stats.phase1.wall_ms + stats.phase2.wall_ms +
                                      stats.phase3.wall_ms);
            }
            kt.add(*dev_, 0);
            dev_->clear_kernel_log();
            ++i;
        }
        loop.wall_s = ms_since(t_start) / 1e3;
        if (loop.peak_rss_mb == 0.0) loop.peak_rss_mb = peak_rss_mb();
        loop.modeled_ms = percentile(modeled, 50);
        kt.to_metrics(layer, static_cast<double>(i));
        layer["simt.device_peak_bytes"] = static_cast<double>(stats.peak_device_bytes);
        layer["core.stats_phases_wall_ms"] = percentile(phases_wall, 50);
        layer["core.overhead_frac"] = stats.overhead_fraction();
        return loop;
    }

    bool probe(Tracer& tracer, Metrics& layer) override {
        bool ok = true;
        ProbeTotals acc;
        // Coverage is taken against the sorts of the traced loop, which ran
        // just before with default Options (graph launches).
        acc.whole_sort_ms = traced_sort_ms_;
        for (std::size_t i = 0; i < kProbeSorts; ++i) {
            ok &= probe_sort(*dev_, input_, kArrays, kSize, expected_, tracer, i, acc);
        }
        // The in-place figure comes from the end-to-end sort's SortStats.
        const double overhead = layer.at("core.overhead_frac");
        acc.to_metrics(layer);
        layer["core.overhead_frac"] = overhead;
        std::vector<double> cpu_ms, sta_wall, sta_modeled;
        ok &= probe_cpu_sort(input_, kArrays, kSize, expected_, tracer, cpu_ms);
        ok &= probe_sta(*dev_, input_, kArrays, kSize, expected_, tracer, sta_wall,
                        sta_modeled);
        layer["baseline.cpu_sort_ms"] = cpu_ms[0];
        layer["thrustlite.sta_wall_ms"] = sta_wall[0];
        layer["thrustlite.sta_modeled_ms"] = sta_modeled[0];
        layer["tune.sketch_us"] = 1e3 * timed(tracer, "tune.sketch", [&] {
            (void)gas::tune::sketch_values(input_, kArrays, kSize);
        });
        // serve, fleet and tune's controller do no work on this workload.
        zero_fill(layer, {"serve.submit_us", "serve.queue_ms_p50", "serve.service_ms_p50",
                          "serve.batch_occupancy", "serve.graph_cache_hit_rate",
                          "serve.pool_reuse_rate", "serve.cpu_fallbacks",
                          "serve.latency_p99_ms", "fleet.route_imbalance", "fleet.steals",
                          "fleet.compute_utilization", "tune.decisions",
                          "tune.plan_switches"});
        return ok;
    }

    [[nodiscard]] Params params() const override {
        return {{"workload", "paper-fig4"},
                {"seed", std::to_string(seed_)},
                {"arrays", std::to_string(kArrays)},
                {"array_size", std::to_string(kSize)},
                {"distribution", "uniform [0, 2^31)"},
                {"devices", "1"},
                {"host_workers_per_device", std::to_string(kWorkers)},
                {"cpus", cpus_ + " (pinned, SCHED_BATCH)"},
                {"exec_mode", "warp"},
                {"in_flight", "1"},
                {"options", "default gas::Options"}};
    }

  private:
    std::uint64_t seed_ = 0;
    std::string cpus_;
    gas::Options opts_;
    std::unique_ptr<simt::Device> dev_;
    std::vector<float> input_, expected_, work_;
    std::vector<double> traced_sort_ms_;  // core.gpu_array_sort spans of the traced loop
};

// ---------------------------------------------------------------------------
// serve-* shared pieces

/// One pre-generated request and its host reference.
struct Request {
    gas::serve::JobKind kind = gas::serve::JobKind::Uniform;
    std::vector<float> values;
    std::vector<float> payload;
    std::vector<std::uint64_t> offsets;
    std::size_t num_arrays = 0;
    std::size_t array_size = 0;
    std::vector<float> expected;      // Uniform / Ragged
    std::vector<Pair> expected_pairs;  // Pairs

    static Request uniform(std::size_t rows, std::size_t n, Distribution dist,
                           std::uint64_t seed) {
        Request r;
        r.num_arrays = rows;
        r.array_size = n;
        r.values = workload::make_dataset(rows, n, dist, seed).values;
        r.expected = sorted_rows(r.values, rows, n);
        return r;
    }
    static Request ragged(std::size_t rows, std::size_t lo, std::size_t hi, Distribution dist,
                          std::uint64_t seed) {
        Request r;
        r.kind = gas::serve::JobKind::Ragged;
        auto ds = workload::make_ragged_dataset(rows, lo, hi, dist, seed);
        r.values = std::move(ds.values);
        r.offsets.assign(ds.offsets.begin(), ds.offsets.end());
        r.expected = sorted_ragged(r.values, r.offsets);
        return r;
    }
    static Request pairs(std::size_t rows, std::size_t n, Distribution dist,
                         std::uint64_t seed) {
        Request r;
        r.kind = gas::serve::JobKind::Pairs;
        r.num_arrays = rows;
        r.array_size = n;
        r.values = workload::make_dataset(rows, n, dist, seed).values;
        r.payload.resize(r.values.size());
        std::iota(r.payload.begin(), r.payload.end(), 0.0f);  // distinct tags expose a lost pair
        r.expected_pairs = sorted_pairs(r.values, r.payload, rows, n);
        return r;
    }

    [[nodiscard]] gas::serve::Job job() const {
        gas::serve::Job j;
        j.kind = kind;
        j.values = values;
        j.payload = payload;
        j.offsets = offsets;
        j.num_arrays = num_arrays;
        j.array_size = array_size;
        return j;
    }

    [[nodiscard]] bool check(const gas::serve::Response& resp) const {
        if (kind == gas::serve::JobKind::Pairs) {
            return pairs_match(resp.values, resp.payload, expected_pairs, num_arrays,
                               array_size);
        }
        return same_bytes(resp.values, expected);
    }
};

/// Counters of the server and its devices at one instant; measure() reports
/// the difference between two snapshots.
struct ServeSnapshot {
    gas::serve::ServerStats stats;
    std::vector<std::size_t> log_sizes;

    static ServeSnapshot take(gas::serve::Server& server,
                              const std::vector<simt::Device*>& devices) {
        server.drain();  // no batch in flight: device state is settled
        ServeSnapshot s;
        s.stats = server.stats();
        for (const simt::Device* d : devices) s.log_sizes.push_back(d->kernel_log().size());
        return s;
    }
};

/// Closed loop: one client thread keeps kInFlight requests outstanding,
/// retires whatever is ready whenever the oldest completes, checks each
/// response against its reference and submits the next request, until
/// `seconds` have passed; then it drains the window.
Loop closed_loop(gas::serve::Server& server, const std::vector<simt::Device*>& devices,
                 const std::function<const Request&(std::uint64_t, double)>& next,
                 double seconds, std::uint64_t rss_after, Tracer& tracer, Metrics& layer,
                 std::uint64_t max_requests = UINT64_MAX) {
    struct Slot {
        gas::serve::Server::Ticket ticket;
        const Request* req = nullptr;
        double submit_us = 0.0;
        std::uint64_t id = 0;
        bool live = false;
    };
    const ServeSnapshot before = ServeSnapshot::take(server, devices);
    Loop loop;
    std::vector<double> submit_us, queue_ms, service_ms;
    std::vector<Slot> slots(kInFlight);
    // One clock for loop timing and spans: microseconds since loop start.
    const double t0_us = tracer.now_us();
    const auto now_us = [&] { return tracer.now_us() - t0_us; };
    std::uint64_t issued = 0;
    const auto submit = [&](Slot& s) {
        const Request& r = next(issued, now_us() / 1e6);
        gas::serve::Job job;
        timed(tracer, "bench.make_job", [&] { job = r.job(); });
        s.req = &r;
        s.id = issued++;
        s.submit_us = now_us();
        submit_us.push_back(1e3 * timed(tracer, "serve.submit", [&] {
            s.ticket = server.submit(std::move(job));
        }, s.id));
        s.live = true;
    };
    for (Slot& s : slots) {
        if (issued < max_requests) submit(s);
    }
    for (;;) {
        Slot* oldest = nullptr;
        for (Slot& s : slots) {
            if (s.live && (oldest == nullptr || s.id < oldest->id)) oldest = &s;
        }
        if (oldest == nullptr) break;
        // Poll rather than block, yielding to the server's threads: the CPU
        // then never idles while requests are in flight.  A blocking client
        // varied about three times as much between runs.
        while (oldest->ticket.result.wait_for(std::chrono::seconds(0)) !=
               std::future_status::ready) {
            std::this_thread::yield();
        }
        const double seen_us = now_us();
        for (std::size_t k = 0; k < slots.size(); ++k) {
            Slot& s = slots[k];
            if (!s.live || (&s != oldest && s.ticket.result.wait_for(std::chrono::seconds(0)) !=
                                                std::future_status::ready)) {
                continue;
            }
            gas::serve::Response resp = s.ticket.result.get();
            if (tracer.enabled()) {
                tracer.record("serve.request", t0_us + s.submit_us, t0_us + seen_us, s.id,
                              static_cast<int>(k) + 1);
            }
            queue_ms.push_back(resp.queue_ms);
            service_ms.push_back(resp.service_ms);
            bool out_ok = false;
            if (resp.ok()) {
                timed(tracer, "bench.check", [&] { out_ok = s.req->check(resp); }, s.id);
            }
            loop.tally.add(resp.ok(), out_ok);
            loop.units.push_back({seen_us / 1e6, (seen_us - s.submit_us) / 1e3,
                                  resp.ok() && out_ok ? s.req->values.size() : 0});
            if (loop.tally.attempted == rss_after) loop.peak_rss_mb = peak_rss_mb();
            s.live = false;
            if (seen_us < seconds * 1e6 && issued < max_requests) submit(s);
        }
    }
    loop.wall_s = now_us() / 1e6;
    if (loop.peak_rss_mb == 0.0) loop.peak_rss_mb = peak_rss_mb();
    const ServeSnapshot after = ServeSnapshot::take(server, devices);

    const auto& a = after.stats;
    const auto& b = before.stats;
    const double completed = static_cast<double>(a.completed - b.completed);
    loop.modeled_ms = ratio(a.modeled_overlap_ms - b.modeled_overlap_ms, completed) * 1e3;

    KernelTotals kt;
    double peak = 0.0;
    for (std::size_t d = 0; d < devices.size(); ++d) {
        kt.add(*devices[d], before.log_sizes[d]);
        peak = std::max(peak, static_cast<double>(devices[d]->memory().peak_bytes_in_use()));
    }
    kt.to_metrics(layer, completed);
    layer["simt.device_peak_bytes"] = peak;
    layer["serve.submit_us"] = percentile(submit_us, 50);
    layer["serve.queue_ms_p50"] = percentile(queue_ms, 50);
    layer["serve.service_ms_p50"] = percentile(service_ms, 50);
    std::vector<double> latency_ms;
    for (const Loop::Unit& u : loop.units) latency_ms.push_back(u.latency_ms);
    layer["serve.latency_p99_ms"] = percentile(latency_ms, 99);
    layer["serve.batch_occupancy"] =
        ratio(static_cast<double>(a.batched_requests - b.batched_requests),
              static_cast<double>(a.batches - b.batches));
    const double hits = static_cast<double>(a.graph_cache_hits - b.graph_cache_hits);
    const double misses = static_cast<double>(a.graph_cache_misses - b.graph_cache_misses);
    layer["serve.graph_cache_hit_rate"] = ratio(hits, hits + misses);
    layer["serve.pool_reuse_rate"] =
        ratio(static_cast<double>(a.pool.reuse_hits - b.pool.reuse_hits),
              static_cast<double>(a.pool.acquires - b.pool.acquires));
    layer["serve.cpu_fallbacks"] = static_cast<double>(a.cpu_fallbacks - b.cpu_fallbacks);
    double max_done = 0.0;
    for (std::size_t d = 0; d < a.devices.size(); ++d) {
        max_done = std::max(max_done, static_cast<double>(a.devices[d].completed -
                                                          b.devices[d].completed));
    }
    layer["fleet.route_imbalance"] =
        ratio(max_done, completed / static_cast<double>(a.devices.size()));
    layer["fleet.steals"] = static_cast<double>(a.steals - b.steals);
    layer["fleet.compute_utilization"] =
        ratio(a.compute_busy_ms - b.compute_busy_ms,
              (a.modeled_overlap_ms - b.modeled_overlap_ms) *
                  static_cast<double>(a.devices.size()));
    layer["tune.decisions"] = static_cast<double>(a.tune_decisions - b.tune_decisions);
    layer["tune.plan_switches"] =
        static_cast<double>(a.tune_plan_switches - b.tune_plan_switches);
    return loop;
}

/// Layer probes over a request pool: decomposed sorts, the CPU and STA
/// baselines on the uniform requests, and tune sketches on every request the
/// server would sketch (uniform and ragged; pair batches are never tuned).
bool probe_requests(const std::vector<const Request*>& pool, unsigned workers, Tracer& tracer,
                    Metrics& layer) {
    simt::Device dev(simt::tesla_k40c(), simt::DeviceMemory::Mode::Backed, workers);
    dev.set_exec_mode(simt::ExecMode::Warp);
    bool ok = true;
    ProbeTotals acc;
    std::vector<double> cpu_ms, sta_wall, sta_modeled, sketch_us;
    std::uint64_t id = 0;
    for (const Request* r : pool) {
        if (r->kind == gas::serve::JobKind::Ragged) {
            sketch_us.push_back(1e3 * timed(tracer, "tune.sketch", [&] {
                (void)gas::tune::sketch_ragged(r->values, r->offsets);
            }, id));
        } else if (r->kind == gas::serve::JobKind::Uniform) {
            sketch_us.push_back(1e3 * timed(tracer, "tune.sketch", [&] {
                (void)gas::tune::sketch_values(r->values, r->num_arrays, r->array_size);
            }, id));
            ok &= probe_sort(dev, r->values, r->num_arrays, r->array_size, r->expected,
                             tracer, id, acc);
            std::vector<float> whole(r->values.begin(), r->values.end());
            acc.whole_sort_ms.push_back(timed(tracer, "core.gpu_array_sort", [&] {
                (void)gas::gpu_array_sort(dev, whole, r->num_arrays, r->array_size);
            }, id));
            ok &= same_bytes(whole, r->expected);
            ok &= probe_cpu_sort(r->values, r->num_arrays, r->array_size, r->expected, tracer,
                                 cpu_ms);
            ok &= probe_sta(dev, r->values, r->num_arrays, r->array_size, r->expected, tracer,
                            sta_wall, sta_modeled);
        }
        ++id;
    }
    acc.to_metrics(layer);
    layer["baseline.cpu_sort_ms"] = mean(cpu_ms);
    layer["thrustlite.sta_wall_ms"] = mean(sta_wall);
    layer["thrustlite.sta_modeled_ms"] = mean(sta_modeled);
    layer["tune.sketch_us"] = mean(sketch_us);
    layer["core.stats_phases_wall_ms"] = 0.0;  // no direct gpu_array_sort here
    return ok;
}

// ---------------------------------------------------------------------------
// serve-small

class ServeSmall final : public Workload {
  public:
    static constexpr std::size_t kPool = 512;
    static constexpr std::size_t kRows = 4;
    static constexpr std::size_t kSize = 64;
    static constexpr std::size_t kWarmup = 2048;
    // The workload runs on one CPU (pin_to_cpus), so one host worker.
    static constexpr unsigned kWorkers = 1;
    // Early enough that the kernel log, whose length follows the batching
    // (launches per request vary run to run), is a small part of the RSS.
    static constexpr std::uint64_t kRssAfter = 25000;  // requests

    void setup(std::uint64_t seed) override {
        seed_ = seed;
        server_.reset();
        cpus_ = pin_to_cpus(1);
        dev_ = std::make_unique<simt::Device>(simt::tesla_k40c(),
                                              simt::DeviceMemory::Mode::Backed, kWorkers);
        dev_->set_exec_mode(simt::ExecMode::Warp);
        pool_.clear();
        for (std::size_t i = 0; i < kPool; ++i) {
            pool_.push_back(Request::uniform(kRows, kSize, Distribution::Uniform,
                                             mix_seed(seed, i)));
        }
        server_ = std::make_unique<gas::serve::Server>(*dev_, gas::serve::ServerConfig{});
        Tracer off(false);
        Metrics scratch;
        const Loop warm =
            closed_loop(*server_, {dev_.get()}, pick(), 1e9, 0, off, scratch, kWarmup);
        if (!warm.tally.correct() || warm.tally.failed != 0) {
            throw std::runtime_error("serve-small: warm-up requests failed");
        }
    }

    Loop measure(double seconds, Tracer& tracer, Metrics& layer) override {
        return closed_loop(*server_, {dev_.get()}, pick(), seconds, kRssAfter, tracer, layer);
    }

    bool probe(Tracer& tracer, Metrics& layer) override {
        std::vector<const Request*> sample;
        for (std::size_t i = 0; i < 32; ++i) sample.push_back(&pool_[i]);
        return probe_requests(sample, kWorkers, tracer, layer);
    }

    [[nodiscard]] Params params() const override {
        return {{"workload", "serve-small"},
                {"seed", std::to_string(seed_)},
                {"request", "uniform 4 x 64"},
                {"request_pool", std::to_string(kPool)},
                {"devices", "1"},
                {"host_workers_per_device", std::to_string(kWorkers)},
                {"cpus", cpus_ + " (pinned, SCHED_BATCH)"},
                {"exec_mode", "warp"},
                {"in_flight", std::to_string(kInFlight)},
                {"client", "1 thread, closed loop"},
                {"server", "async, default ServerConfig"}};
    }

  private:
    std::function<const Request&(std::uint64_t, double)> pick() {
        return [this](std::uint64_t k, double) -> const Request& { return pool_[k % kPool]; };
    }

    std::uint64_t seed_ = 0;
    std::string cpus_;
    std::unique_ptr<simt::Device> dev_;
    std::vector<Request> pool_;
    std::unique_ptr<gas::serve::Server> server_;
};

// ---------------------------------------------------------------------------
// serve-mixed

class ServeMixed final : public Workload {
  public:
    static constexpr std::size_t kDevices = 2;
    // The workload runs on one CPU (pin_to_cpus), so one host worker
    // per device.
    static constexpr unsigned kWorkersPerDevice = 1;
    static constexpr std::size_t kPerCell = 32;  // requests per (quarter, kind)
    static constexpr std::size_t kKinds = 3;
    static constexpr std::size_t kRows = 8;
    static constexpr std::size_t kSize = 512;
    static constexpr std::uint64_t kRssAfter = 50000;  // requests
    static constexpr Distribution kQuarters[4] = {
        Distribution::Uniform, Distribution::ZipfHot, Distribution::FewDistinct,
        Distribution::NearlySorted};

    void setup(std::uint64_t seed) override {
        seed_ = seed;
        server_.reset();
        cpus_ = pin_to_cpus(1);
        fleet_ = std::make_unique<gas::fleet::DeviceFleet>(
            kDevices, simt::tesla_k40c(), simt::DeviceMemory::Mode::Backed, kWorkersPerDevice);
        fleet_->set_exec_mode(simt::ExecMode::Warp);
        devices_.clear();
        for (std::size_t d = 0; d < kDevices; ++d) devices_.push_back(&fleet_->device(d));
        pool_.clear();
        for (std::size_t q = 0; q < 4; ++q) {
            for (std::size_t i = 0; i < kPerCell; ++i) {
                // Kinds interleave so request k uses kind k % 3.
                const Distribution d = kQuarters[q];
                pool_.push_back(Request::uniform(kRows, kSize, d, mix_seed(seed, q, 3 * i)));
                pool_.push_back(Request::ragged(kRows, 64, 1024, d, mix_seed(seed, q, 3 * i + 1)));
                pool_.push_back(Request::pairs(kRows, kSize, d, mix_seed(seed, q, 3 * i + 2)));
            }
        }
        server_ = std::make_unique<gas::serve::Server>(*fleet_, gas::serve::ServerConfig{});
        // Warm-up: one pass over the whole pool, every quarter and kind.
        Tracer off(false);
        Metrics scratch;
        const Loop warm = closed_loop(
            *server_, devices_,
            [this](std::uint64_t k, double) -> const Request& { return pool_[k % pool_.size()]; },
            1e9, 0, off, scratch, pool_.size());
        if (!warm.tally.correct() || warm.tally.failed != 0) {
            throw std::runtime_error("serve-mixed: warm-up requests failed");
        }
    }

    Loop measure(double seconds, Tracer& tracer, Metrics& layer) override {
        const std::size_t cell = kPerCell * kKinds;
        return closed_loop(
            *server_, devices_,
            [this, seconds, cell](std::uint64_t k, double elapsed_s) -> const Request& {
                const auto q = std::min<std::size_t>(
                    3, static_cast<std::size_t>(4.0 * elapsed_s / seconds));
                return pool_[q * cell + k % cell];
            },
            seconds, kRssAfter, tracer, layer);
    }

    bool probe(Tracer& tracer, Metrics& layer) override {
        // The first 8 uniform and 8 ragged requests of every quarter.
        std::vector<const Request*> sample;
        for (std::size_t q = 0; q < 4; ++q) {
            for (std::size_t i = 0; i < 8 * kKinds; ++i) {
                const Request& r = pool_[q * kPerCell * kKinds + i];
                if (r.kind != gas::serve::JobKind::Pairs) sample.push_back(&r);
            }
        }
        return probe_requests(sample, kWorkersPerDevice, tracer, layer);
    }

    [[nodiscard]] Params params() const override {
        return {{"workload", "serve-mixed"},
                {"seed", std::to_string(seed_)},
                {"requests", "rotate uniform 8 x 512 / ragged 8 x [64, 1024] / pairs 8 x 512"},
                {"quarters", "uniform, zipf-hot, few-distinct, nearly-sorted"},
                {"request_pool", std::to_string(pool_.size())},
                {"devices", std::to_string(kDevices)},
                {"host_workers_per_device", std::to_string(kWorkersPerDevice)},
                {"cpus", cpus_ + " (pinned, SCHED_BATCH)"},
                {"exec_mode", "warp"},
                {"in_flight", std::to_string(kInFlight)},
                {"client", "1 thread, closed loop"},
                {"server", "async, default ServerConfig, least-loaded routing"}};
    }

  private:
    std::uint64_t seed_ = 0;
    std::string cpus_;
    std::unique_ptr<gas::fleet::DeviceFleet> fleet_;
    std::vector<simt::Device*> devices_;
    std::vector<Request> pool_;
    std::unique_ptr<gas::serve::Server> server_;
};

}  // namespace

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

Metrics loop_metrics(const Loop& loop) {
    double elements = 0.0, ok = 0.0;
    std::vector<double> latency_ms;
    for (const Loop::Unit& u : loop.units) {
        elements += static_cast<double>(u.elements);
        ok += u.elements > 0 ? 1.0 : 0.0;
        latency_ms.push_back(u.latency_ms);
    }
    return {{"elements_per_s", ratio(elements, loop.wall_s)},
            {"requests_per_s", ratio(ok, loop.wall_s)},
            {"latency_p50_ms", percentile(latency_ms, 50)},
            {"latency_p90_ms", percentile(latency_ms, 90)},
            {"modeled_ms", loop.modeled_ms},
            {"success_frac", loop.tally.success_frac()},
            {"peak_rss_mb", loop.peak_rss_mb}};
}

double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank =
        static_cast<std::size_t>(std::ceil(q / 100.0 * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names = {"paper-fig4", "serve-small", "serve-mixed"};
    return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
    if (name == "paper-fig4") return std::make_unique<PaperFig4>();
    if (name == "serve-small") return std::make_unique<ServeSmall>();
    if (name == "serve-mixed") return std::make_unique<ServeMixed>();
    return nullptr;
}

}  // namespace gasbench
