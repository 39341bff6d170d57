// Launch-overhead microbenchmark: launches/second through the persistent
// worker pool vs. the old per-launch strategy (spawn + join a std::thread
// per worker, each constructing a fresh BlockCtx with its 48 KB arena), and
// the pool's loop-of-launches vs. one submitted simt::Graph.
//
// Small grids are where overhead dominates — a 4-block kernel simulates in
// microseconds, so per-launch thread creation was the bill.  GPU-ArraySort
// issues dozens of launches per sort (STA: 3 kernels x 8 passes x 3 sorts),
// which is why the pool exists; a work graph removes the remaining
// per-launch scheduling round-trip by keeping the worker team resident for
// the whole DAG.  Device::launch is itself a one-node submit, so the loop
// side runs a graph (and wakes a team) per launch, the graph side one per
// chain.  Gates:
//
//   pool vs spawn   >= 3x launches/sec on small grids (full mode only)
//   graph vs loop   >= 2x launches/sec on small grids (fig4-shaped chains)
//   grid-1 chain    graph >= 0.9x loop launches/sec: a graph of 1-block
//                   nodes wakes a team of one, like each launch does
//   equivalence     graph and loop paths sort fig4-shaped work with 0 byte
//                   mismatches and 0 deterministic-KernelStats drift, in
//                   Scalar and Warp modes, sanitizer off and strict
//
//   micro_launch_overhead [--quick] [--iters N] [--json PATH]
//                         [--baseline PATH]
//
// The full run owns the committed BENCH_graph.json artifact; --quick is the
// bench-smoke ctest body — it trims iterations and skips the slow spawn
// comparison.  --baseline PATH compares the run with a committed baseline,
// each check needing at least 80% of the baseline's figure, and prints
// which checks ran:
//
//   (a) always     grid-4 graph/loop speedup >= 0.8x the baseline's grid-4
//                  "graph" speedup (BENCH_graph.json: 4.245x -> 3.40x).  A
//                  same-run ratio, so it can be compared across hosts, but
//                  not one-to-one: the committed 4.245x comes from a 1-core
//                  host, and a 4-core host reads 4.4-6.8x, so there (a)
//                  fails only when the graph path loses some 25-50% of its
//                  lead, not on every 20% regression
//   (b) same host  grid-4 graph launches/sec >= 0.8x the baseline's
//                  quick_graph_launches_per_sec, only when the baseline's
//                  "workers" (its host's hardware_concurrency) equals this
//                  host's; an absolute rate says nothing across unlike hosts
//
// A baseline lacking any of those fields fails.  Exit code 0 iff every gate
// passed.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/gpu_array_sort.hpp"
#include "core/phases.hpp"
#include "core/plan.hpp"
#include "simt/cost_model.hpp"
#include "simt/device.hpp"
#include "simt/graph.hpp"
#include "simt/kernel.hpp"
#include "workload/generators.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// The tiny kernel body every launch strategy executes per block.
void tiny_body(simt::BlockCtx& blk) {
    blk.for_each_thread([&](simt::ThreadCtx& tc) { tc.ops(1); });
}

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Launches/sec through Device::launch (the persistent pool).
double pool_rate(simt::Device& dev, unsigned grid, unsigned block, int iters) {
    for (int i = 0; i < 16; ++i) dev.launch({"micro.tiny", grid, block}, tiny_body);
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) dev.launch({"micro.tiny", grid, block}, tiny_body);
    return iters / seconds_since(t0);
}

/// Launches/sec with the pre-pool strategy: every launch spawns `workers`
/// std::threads, each of which constructs its own BlockCtx (48 KB shared
/// arena included), pulls blocks from a shared counter, and is joined.
/// Cost aggregation mirrors Device::launch so the work per block matches.
double spawn_rate(const simt::DeviceProperties& props, unsigned grid, unsigned block,
                  unsigned workers, int iters) {
    const simt::CostModel model(props);
    workers = std::min(workers, grid);
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) {
        std::vector<simt::BlockCost> records(grid);
        std::atomic<unsigned> next{0};
        auto worker = [&](unsigned slot) {
            simt::BlockCtx ctx(block, grid, props.shared_memory_per_block,
                               simt::ThreadOrder::Forward, slot);
            for (unsigned b = next.fetch_add(1); b < grid; b = next.fetch_add(1)) {
                ctx.begin_block(b);
                tiny_body(ctx);
                records[b] = model.block_cost(ctx.lanes());
            }
        };
        std::vector<std::thread> threads;
        threads.reserve(workers);
        for (unsigned w = 0; w < workers; ++w) threads.emplace_back(worker, w);
        for (auto& t : threads) t.join();
        double cycles = 0.0;
        for (const auto& r : records) cycles += r.cycles;
        (void)cycles;
    }
    return iters / seconds_since(t0);
}

/// Kernel launches/sec when a `chain`-node dependency chain is issued as
/// `chain` separate Device::launch calls (one scheduling round-trip each).
double loop_chain_rate(simt::Device& dev, unsigned grid, unsigned block,
                       unsigned chain, int iters) {
    const auto run = [&] {
        for (unsigned k = 0; k < chain; ++k) {
            dev.launch({"micro.tiny", grid, block}, tiny_body);
        }
    };
    for (int i = 0; i < 4; ++i) run();
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) run();
    return iters * chain / seconds_since(t0);
}

/// Kernel launches/sec when the same chain is one Device::submit: the worker
/// team stays resident across all `chain` nodes, so the per-launch wake/join
/// round-trip is paid once per graph.  Graph construction is timed too — a
/// sorter rebuilds its graph per sort, so build cost is part of the win.
double graph_chain_rate(simt::Device& dev, unsigned grid, unsigned block,
                        unsigned chain, int iters) {
    const auto run = [&] {
        simt::Graph g;
        simt::Graph::NodeId prev = 0;
        for (unsigned k = 0; k < chain; ++k) {
            prev = k == 0 ? g.add_kernel({"micro.tiny", grid, block}, tiny_body)
                          : g.add_kernel({"micro.tiny", grid, block}, tiny_body, {prev});
        }
        dev.submit(g);
    };
    for (int i = 0; i < 4; ++i) run();
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) run();
    return iters * chain / seconds_since(t0);
}

/// Number of output elements whose bit patterns differ.
std::size_t byte_mismatches(const std::vector<float>& a, const std::vector<float>& b) {
    if (a.size() != b.size()) return std::max(a.size(), b.size());
    std::size_t bad = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) ++bad;
    }
    return bad;
}

/// Number of kernel-log rows whose deterministic KernelStats fields differ
/// (wall_ms is host time and legitimately differs between strategies).
std::size_t stats_drift(const std::vector<simt::KernelStats>& a,
                        const std::vector<simt::KernelStats>& b) {
    if (a.size() != b.size()) return std::max(a.size(), b.size());
    std::size_t bad = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto& s = a[i];
        const auto& w = b[i];
        const bool same =
            s.name == w.name && s.grid_dim == w.grid_dim && s.block_dim == w.block_dim &&
            s.shared_bytes_per_block == w.shared_bytes_per_block &&
            s.totals.ops == w.totals.ops &&
            s.totals.shared_accesses == w.totals.shared_accesses &&
            s.totals.coalesced_bytes == w.totals.coalesced_bytes &&
            s.totals.random_accesses == w.totals.random_accesses &&
            s.traffic_bytes == w.traffic_bytes && s.compute_ms == w.compute_ms &&
            s.memory_ms == w.memory_ms && s.modeled_ms == w.modeled_ms &&
            s.warp_max_cycles == w.warp_max_cycles &&
            s.warp_mean_cycles == w.warp_mean_cycles && s.imbalance == w.imbalance;
        if (!same) ++bad;
    }
    return bad;
}

struct EquivCell {
    const char* exec;      ///< "scalar" | "warp"
    const char* sanitize;  ///< "off" | "strict"
    std::size_t mismatches = 0;
    std::size_t drift = 0;
};

/// The loop-of-launches reference for an ascending multi-bucket
/// gpu_array_sort: its three phase kernels issued one Device::launch at a
/// time, over the same device buffers allocated in the same order.
void loop_array_sort(simt::Device& dev, std::span<float> host, std::size_t num_arrays,
                     std::size_t array_size) {
    simt::DeviceBuffer<float> data(dev, num_arrays * array_size);
    simt::copy_to_device(std::span<const float>(host), data);
    const auto span = data.span();
    const gas::Options opts;
    const auto plan = gas::make_plan(array_size, opts, dev.props(), sizeof(float));
    simt::DeviceBuffer<float> splitters(dev, num_arrays * plan.splitters_per_array);
    simt::DeviceBuffer<std::uint32_t> sizes(dev, num_arrays * plan.buckets);
    const std::size_t rows = gas::detail::scratch_rows(dev, plan, num_arrays);
    simt::DeviceBuffer<float> scratch;
    if (rows > 0) scratch = simt::DeviceBuffer<float>(dev, rows * array_size);
    gas::detail::splitter_phase<float>(dev, span, num_arrays, plan, splitters.span());
    gas::detail::bucket_phase<float>(dev, span, num_arrays, plan, opts, splitters.span(),
                                     sizes.span(), scratch.span(), rows);
    gas::detail::sort_phase<float>(dev, span, num_arrays, plan, sizes.span(), opts);
    simt::copy_to_host(data, host);
}

/// Sorts the same fig4-shaped dataset with gpu_array_sort (one submitted
/// graph) and with the loop reference under one (exec mode, sanitize)
/// configuration and reports the byte and deterministic-stats deltas — the
/// graph executor's bit-identical contract.
EquivCell equivalence_cell(const workload::Dataset& ds, simt::ExecMode mode,
                           bool strict) {
    const auto run = [&](bool graph) {
        auto values = ds.values;
        simt::Device dev = bench::make_device();
        dev.set_exec_mode(mode);
        if (strict) {
            auto sopts = simt::sanitize::SanitizeOptions::all();
            sopts.strict = true;
            dev.set_sanitize_options(sopts);
        }
        if (graph) {
            gas::gpu_array_sort(dev, std::span<float>(values), ds.num_arrays,
                                ds.array_size);
        } else {
            loop_array_sort(dev, std::span<float>(values), ds.num_arrays, ds.array_size);
        }
        return std::pair{std::move(values),
                         std::vector<simt::KernelStats>(dev.kernel_log().begin(),
                                                        dev.kernel_log().end())};
    };
    const auto loop = run(false);
    const auto graph = run(true);
    EquivCell cell{mode == simt::ExecMode::Warp ? "warp" : "scalar",
                   strict ? "strict" : "off"};
    cell.mismatches = byte_mismatches(loop.first, graph.first);
    cell.drift = stats_drift(loop.second, graph.second);
    return cell;
}

/// The number after `key` in `text`, searching from `from`; 0.0 when `from`
/// is npos or the key is absent.
double number_after(const std::string& text, std::size_t from, const char* key) {
    const auto pos = from == std::string::npos ? from : text.find(key, from);
    if (pos == std::string::npos) return 0.0;
    return std::strtod(text.c_str() + pos + std::strlen(key), nullptr);
}

/// The fields of a committed BENCH_graph.json the --baseline gates read;
/// each is 0 when missing.
struct GraphBaseline {
    unsigned workers = 0;        ///< hardware_concurrency of the writing host
    double grid4_speedup = 0.0;  ///< "speedup" of the grid-4 "graph" entry
    double quick_rate = 0.0;     ///< quick_graph_launches_per_sec
};

GraphBaseline read_baseline(const std::string& path) {
    GraphBaseline base;
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) return base;
    std::string text(1 << 16, '\0');
    text.resize(std::fread(text.data(), 1, text.size(), f));
    std::fclose(f);
    // This bench writes the file on one line, top-level "workers" first.
    // The grid-4 speedup is looked up inside the "graph" array: the first
    // "speedup" in the file is the grid-1 pool/spawn row.
    base.workers = static_cast<unsigned>(number_after(text, 0, "\"workers\":"));
    base.quick_rate = number_after(text, 0, "\"quick_graph_launches_per_sec\":");
    std::size_t row = text.find("\"graph\":[");
    if (row != std::string::npos) row = text.find("{\"grid\":4,", row);
    base.grid4_speedup = number_after(text, row, "\"speedup\":");
    return base;
}

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    std::string json_path;
    std::string baseline_path;
    int iters = 2000;
    int spawn_iters = 300;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
            baseline_path = argv[++i];
        } else if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
            iters = std::max(1, std::atoi(argv[++i]));
            spawn_iters = std::max(1, iters / 4);
        } else if (std::strcmp(argv[i], "--help") == 0) {
            std::printf("usage: %s [--quick] [--iters N] [--json PATH] [--baseline PATH]\n",
                        argv[0]);
            return 0;
        }
    }
    if (quick) {
        iters = std::min(iters, 400);
        spawn_iters = std::min(spawn_iters, 100);
    }
    // The full run owns the committed artifact; --quick (the smoke test)
    // writes nothing unless asked, so it can never clobber the baseline.
    if (json_path.empty() && !quick) json_path = "BENCH_graph.json";

    const unsigned workers = std::max(std::thread::hardware_concurrency(), 1u);
    simt::Device dev(simt::tesla_k40c(), simt::DeviceMemory::Mode::Backed, workers);
    const unsigned grids[] = {1, 4, 16, 64, 256};
    const unsigned block = 32;
    // A fig4-shaped sort issues a few dozen dependent launches (3 phases plus
    // negate/verify variants; STA is 3 kernels x 8 passes x 3 sorts).
    const unsigned chain = 24;

    std::string json = "{\"bench\":\"micro_launch_overhead\",\"workers\":" +
                       std::to_string(workers) + ",\"block_dim\":" + std::to_string(block);
    bool ok = true;

    std::printf("Launch overhead: persistent pool vs per-launch thread spawning\n");
    std::printf("host workers: %u, block_dim: %u, %d pool iters / %d spawn iters\n",
                workers, block, iters, spawn_iters);
    bench::rule('=');

    bool spawn_ok = true;
    if (!quick) {
        std::printf("%8s | %18s %18s | %8s\n", "grid", "pool launches/s",
                    "spawn launches/s", "speedup");
        bench::rule();
        json += ",\"results\":[";
        for (std::size_t i = 0; i < std::size(grids); ++i) {
            const unsigned grid = grids[i];
            // Larger grids do real per-block work; scale iterations down so
            // the bench stays quick without losing resolution.
            const int scale = grid >= 64 ? 4 : 1;
            const double pool = pool_rate(dev, grid, block, iters / scale);
            const double spawn = spawn_rate(dev.props(), grid, block, workers,
                                            spawn_iters / scale);
            const double speedup = pool / spawn;
            if (grid <= 16 && speedup < 3.0) spawn_ok = false;
            std::printf("%8u | %18.0f %18.0f | %7.1fx\n", grid, pool, spawn, speedup);
            std::fflush(stdout);
            char row[256];
            std::snprintf(row, sizeof(row),
                          "%s{\"grid\":%u,\"pool_launches_per_sec\":%.1f,"
                          "\"spawn_launches_per_sec\":%.1f,\"speedup\":%.3f}",
                          i == 0 ? "" : ",", grid, pool, spawn, speedup);
            json += row;
        }
        json += "]";
        std::printf("small grids (<=16 blocks) pool >= 3x spawn: %s\n",
                    spawn_ok ? "yes" : "NO");
        ok = ok && spawn_ok;
        bench::rule();
    }

    // Graph submission vs the loop of pool launches: the same `chain`-node
    // dependency chain, one Device::submit vs `chain` Device::launch calls.
    // The comparison targets the multi-worker scheduling protocol the graph
    // amortizes (per-launch park/wake vs one resident team), so the device
    // gets at least 4 workers even on a small CI host.  At grid=1 both sides
    // run inline (the team is sized by the widest node), so the graph must
    // only keep up with the loop.
    const unsigned team_workers = std::max(workers, 4u);
    simt::Device team_dev(simt::tesla_k40c(), simt::DeviceMemory::Mode::Backed,
                          team_workers);
    std::printf("Graph launches: %u-kernel chain as one Device::submit vs a launch loop "
                "(%u workers)\n",
                chain, team_workers);
    std::printf("%8s | %18s %18s | %8s\n", "grid", "graph launches/s",
                "loop launches/s", "speedup");
    bench::rule();
    json += ",\"graph\":[";
    bool graph_ok = true;
    bool grid1_ok = true;
    double quick_rate = 0.0;
    double quick_speedup = 0.0;
    // Sized so each measurement spans ~100ms — launch rates on a timeshared
    // host need to average over several scheduler quanta; --quick keeps the
    // full size here because the graph gate is the point of the quick run.
    const int chain_iters = 2000 / static_cast<int>(chain) * 4;
    // Best-of-3 per side, the sides interleaved: launch rates on a shared
    // host are scheduler-noisy, each side's best run is its honest
    // capability, and interleaving spreads a noisy stretch over both sides.
    for (std::size_t i = 0; i < std::size(grids); ++i) {
        const unsigned grid = grids[i];
        const int scale = grid >= 64 ? 4 : 1;
        double loop = 0.0;
        double graph = 0.0;
        for (int rep = 0; rep < 3; ++rep) {
            loop = std::max(loop, loop_chain_rate(team_dev, grid, block, chain,
                                                  chain_iters / scale));
            graph = std::max(graph, graph_chain_rate(team_dev, grid, block, chain,
                                                     chain_iters / scale));
        }
        const double speedup = graph / loop;
        // The gate sits on the overhead-dominated point (a 4-block grid is
        // too small to hide any scheduling round-trip).  Larger grids are
        // reported but not gated: past ~16 blocks per-block work dominates
        // and on a uniprocessor CI host the ratio degenerates toward 1.
        if (grid == 4 && speedup < 2.0) graph_ok = false;
        if (grid == 1 && speedup < 0.9) grid1_ok = false;
        if (grid == 4) {
            quick_rate = graph;
            quick_speedup = speedup;
        }
        std::printf("%8u | %18.0f %18.0f | %7.1fx\n", grid, graph, loop, speedup);
        std::fflush(stdout);
        char row[256];
        std::snprintf(row, sizeof(row),
                      "%s{\"grid\":%u,\"chain\":%u,\"graph_launches_per_sec\":%.1f,"
                      "\"loop_launches_per_sec\":%.1f,\"speedup\":%.3f}",
                      i == 0 ? "" : ",", grid, chain, graph, loop, speedup);
        json += row;
    }
    json += "]";
    std::printf("overhead-dominated small grid (4 blocks) graph >= 2x loop: %s\n",
                graph_ok ? "yes" : "NO");
    std::printf("single-block chain (1 block) graph >= 0.9x loop: %s\n",
                grid1_ok ? "yes" : "NO");
    ok = ok && graph_ok && grid1_ok;
    bench::rule();

    // Bit-identical contract on real fig4-shaped work: the graph and the
    // loop reference must agree byte-for-byte and stat-for-stat in every
    // configuration.
    const std::size_t eq_arrays = quick ? 64 : 250;
    const std::size_t eq_size = quick ? 500 : 1000;
    const auto ds = workload::make_dataset(eq_arrays, eq_size,
                                           workload::Distribution::Uniform, 4);
    std::printf("Graph vs loop equivalence: fig4-shaped sort, N=%zu n=%zu\n", eq_arrays,
                eq_size);
    json += ",\"equivalence\":[";
    bool equiv_ok = true;
    bool first_cell = true;
    for (const auto mode : {simt::ExecMode::Scalar, simt::ExecMode::Warp}) {
        for (const bool strict : {false, true}) {
            const EquivCell cell = equivalence_cell(ds, mode, strict);
            equiv_ok = equiv_ok && cell.mismatches == 0 && cell.drift == 0;
            std::printf("  %-6s sanitize=%-6s | %zu byte mismatches, %zu stats drift\n",
                        cell.exec, cell.sanitize, cell.mismatches, cell.drift);
            char row[192];
            std::snprintf(row, sizeof(row),
                          "%s{\"exec\":\"%s\",\"sanitize\":\"%s\","
                          "\"byte_mismatches\":%zu,\"stats_drift\":%zu}",
                          first_cell ? "" : ",", cell.exec, cell.sanitize, cell.mismatches,
                          cell.drift);
            json += row;
            first_cell = false;
        }
    }
    json += "]";
    std::printf("graph path bit-identical in all 4 configurations: %s\n",
                equiv_ok ? "yes" : "NO");
    ok = ok && equiv_ok;

    // The numbers above are only honest if the sanitizer machinery is
    // provably inert by default: same kernel, default vs all-checks device,
    // every deterministic KernelStats field bit-identical.
    const bool inert = bench::verify_sanitize_off_guarantee([](simt::Device& d) {
        for (int i = 0; i < 32; ++i) d.launch({"micro.tiny", 16, 32}, tiny_body);
    });
    ok = ok && inert;

    // Baseline gates, each needing >= 80% of the baseline's figure: (a) the
    // same-run grid-4 graph/loop speedup always runs; (b) the absolute
    // grid-4 graph launch rate runs only against a baseline written on a
    // host with this host's core count.
    if (!baseline_path.empty()) {
        const GraphBaseline base = read_baseline(baseline_path);
        if (base.workers == 0 || base.grid4_speedup <= 0.0 || base.quick_rate <= 0.0) {
            std::printf("baseline: %s lacks workers, the grid-4 graph speedup or "
                        "quick_graph_launches_per_sec — FAIL\n",
                        baseline_path.c_str());
            ok = false;
        } else {
            const bool ratio_pass = quick_speedup >= 0.8 * base.grid4_speedup;
            std::printf("gate (a) same-run ratio: grid-4 graph/loop speedup %.2fx vs "
                        "baseline %.2fx (need >= 80%%) ... %s\n",
                        quick_speedup, base.grid4_speedup, ratio_pass ? "PASS" : "FAIL");
            ok = ok && ratio_pass;
            if (base.workers == workers) {
                const bool rate_pass = quick_rate >= 0.8 * base.quick_rate;
                std::printf("gate (b) absolute rate: graph launch rate %.0f/s vs baseline "
                            "%.0f/s (need >= 80%%) ... %s\n",
                            quick_rate, base.quick_rate, rate_pass ? "PASS" : "FAIL");
                ok = ok && rate_pass;
            } else {
                std::printf("gate (b) absolute rate: not run — baseline host had %u "
                            "core(s), this host has %u\n",
                            base.workers, workers);
            }
        }
    }

    char tail[384];
    std::snprintf(tail, sizeof(tail),
                  ",\"quick_graph_launches_per_sec\":%.1f"
                  ",\"sanitize_off_bit_identical\":%s"
                  ",\"small_grid_pool_speedup_ge_3x\":%s"
                  ",\"small_grid_graph_speedup_ge_2x\":%s"
                  ",\"grid1_graph_speedup_ge_0_9x\":%s"
                  ",\"graph_bit_identical\":%s,\"pass\":%s}",
                  quick_rate, inert ? "true" : "false", spawn_ok ? "true" : "false",
                  graph_ok ? "true" : "false", grid1_ok ? "true" : "false",
                  equiv_ok ? "true" : "false", ok ? "true" : "false");
    json += tail;

    bench::rule();
    std::printf("%s\n", json.c_str());
    if (!json_path.empty()) {
        if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
            std::fprintf(f, "%s\n", json.c_str());
            std::fclose(f);
            std::printf("wrote %s\n", json_path.c_str());
        } else {
            std::printf("could not write %s\n", json_path.c_str());
            ok = false;
        }
    }
    return ok ? 0 : 1;
}
