// gas_bench: the repository benchmark program.
//
//   gas_bench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]
//   gas_bench --selftest        checker self-test (injected bad outputs)
//   gas_bench --list-metrics    metric catalogue as JSON
//
// An untraced run (--trace 0) sets the workload up several times (setup_s is
// the median), measures it for S seconds with tracing off and prints the
// end-to-end metrics.  A traced run (--trace 1) measures S/2 seconds
// untraced, then S/2 seconds traced, then probes each layer directly, and
// prints the per-layer metrics plus the traced-minus-untraced difference of
// each end-to-end loop metric.  The last stdout line is always the result
// object; the line before it records the host fingerprint and run parameters.

#include <sys/utsname.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "check.hpp"
#include "metrics.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#ifndef GAS_BENCH_BUILD_TYPE
#define GAS_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace gasbench;

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir = ".bench_out";
    bool selftest = false;
    bool list_metrics = false;
};

[[noreturn]] void usage(const char* msg) {
    std::fprintf(stderr,
                 "gas_bench: %s\n"
                 "usage: gas_bench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR]\n"
                 "       gas_bench --selftest | --list-metrics\n",
                 msg);
    std::exit(2);
}

Args parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage(("missing value for " + k).c_str());
            return argv[++i];
        };
        if (k == "--workload") {
            a.workload = value();
        } else if (k == "--seed") {
            a.seed = std::stoull(value());
        } else if (k == "--seconds") {
            a.seconds = std::stod(value());
        } else if (k == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1") usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (k == "--out-dir") {
            a.out_dir = value();
        } else if (k == "--selftest") {
            a.selftest = true;
        } else if (k == "--list-metrics") {
            a.list_metrics = true;
        } else {
            usage(("unknown argument " + k).c_str());
        }
    }
    if (a.seconds <= 0.0) usage("--seconds must be positive");
    return a;
}

std::string quoted(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string number(double v) {
    if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string object(const Params& kv) {
    std::string out = "{";
    for (std::size_t i = 0; i < kv.size(); ++i) {
        if (i > 0) out += ',';
        out += quoted(kv[i].first);
        out += ':';
        out += quoted(kv[i].second);
    }
    return out + "}";
}

Params host_fingerprint() {
    utsname u{};
    uname(&u);
    Params h = {{"nproc", std::to_string(std::max(std::thread::hardware_concurrency(), 1u))},
#if defined(__clang__)
                {"compiler", std::string("clang ") + __clang_version__},
#elif defined(__GNUC__)
                {"compiler", std::string("gcc ") + __VERSION__},
#else
                {"compiler", "unknown"},
#endif
                {"build_type", GAS_BENCH_BUILD_TYPE},
                {"os", std::string(u.sysname) + " " + u.release},
                {"machine", u.machine}};
    return h;
}

template <std::size_t N>
std::string metric_list_json(const MetricDef (&defs)[N]) {
    std::string out = "[";
    for (std::size_t i = 0; i < N; ++i) {
        if (i > 0) out += ',';
        out += "{\"name\":";
        out += quoted(defs[i].name);
        out += ",\"unit\":";
        out += quoted(defs[i].unit);
        out += '}';
    }
    return out + "]";
}

/// {"name": {"value": v, "unit": u}, ...} over exactly the catalogue `defs`.
template <std::size_t N>
std::string metrics_json(const MetricDef (&defs)[N], const Metrics& values) {
    std::string out = "{";
    for (std::size_t i = 0; i < N; ++i) {
        const auto it = values.find(defs[i].name);
        if (it == values.end()) {
            throw std::logic_error(std::string("metric not computed: ") + defs[i].name);
        }
        if (i > 0) out += ',';
        out += quoted(defs[i].name);
        out += ":{\"value\":";
        out += number(it->second);
        out += ",\"unit\":";
        out += quoted(defs[i].unit);
        out += '}';
    }
    return out + "}";
}

/// Correct elements retired in each second of the loop: host noise and
/// program stalls show as dips in this series, not in the whole-run rates.
std::string elements_by_second(const Loop& loop) {
    std::vector<double> bins(static_cast<std::size_t>(std::ceil(loop.wall_s)), 0.0);
    for (const Loop::Unit& u : loop.units) {
        if (bins.empty()) break;
        bins[std::min(bins.size() - 1, static_cast<std::size_t>(u.done_s))] +=
            static_cast<double>(u.elements);
    }
    std::string out = "[";
    for (std::size_t i = 0; i < bins.size(); ++i) {
        if (i > 0) out += ',';
        out += number(bins[i]);
    }
    return out + "]";
}

void write_file(const std::filesystem::path& path, const std::string& text) {
    std::filesystem::create_directories(path.parent_path());
    std::ofstream(path) << text;
}

int run(const Args& a) {
    if (make_workload(a.workload) == nullptr) {
        std::string names;
        for (const auto& n : workload_names()) names += " " + n;
        usage(("unknown workload '" + a.workload + "'; have:" + names).c_str());
    }

    // Set up several times; setup_s is the median.  The last set-up is kept.
    std::unique_ptr<Workload> w;
    std::vector<double> setup_s;
    for (int k = 0; k < kSetups; ++k) {
        w.reset();
        const auto t0 = std::chrono::steady_clock::now();
        w = make_workload(a.workload);
        w->setup(a.seed);
        setup_s.push_back(
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
    }

    Metrics e2e;
    Metrics layer;
    std::string series;
    Tally tally;
    bool correct = true;
    Tracer tracer(a.trace);
    if (!a.trace) {
        const Loop loop = w->measure(a.seconds, tracer, layer);
        e2e = loop_metrics(loop);
        series = elements_by_second(loop);
        tally = loop.tally;
    } else {
        Tracer off(false);
        Metrics untraced_layer;
        const Loop plain = w->measure(a.seconds / 2, off, untraced_layer);
        const Loop traced = w->measure(a.seconds / 2, tracer, layer);
        correct = w->probe(tracer, layer);
        e2e = loop_metrics(plain);
        series = elements_by_second(plain);
        const Metrics with_spans = loop_metrics(traced);
        for (const auto& [name, value] : e2e) {
            layer["trace_overhead." + name] = with_spans.at(name) - value;
        }
        for (const char* l : {"simt", "core", "serve", "tune", "baseline", "thrustlite",
                              "bench"}) {
            const auto it = tracer.self_ms().find(l);
            layer[std::string(l) + ".self_ms"] = it == tracer.self_ms().end() ? 0.0 : it->second;
        }
        layer["trace.spans"] = static_cast<double>(tracer.span_count());
        tally = plain.tally;
        tally.attempted += traced.tally.attempted;
        tally.failed += traced.tally.failed;
        tally.wrong += traced.tally.wrong;
    }
    correct = correct && tally.correct();
    e2e["setup_s"] = percentile(setup_s, 50);

    Params params = w->params();
    params.emplace_back("seconds", number(a.seconds));
    params.emplace_back("trace", a.trace ? "1" : "0");
    params.emplace_back("setups", std::to_string(kSetups));
    const std::string context =
        "{\"host\":" + object(host_fingerprint()) + ",\"params\":" + object(params) + "}";

    const std::string metrics =
        a.trace ? metrics_json(kPerLayer, layer) : metrics_json(kEndToEnd, e2e);
    const std::string result = "{\"correct\":" + std::string(correct ? "true" : "false") +
                               ",\"attempted\":" + std::to_string(tally.attempted) +
                               ",\"failed\":" + std::to_string(tally.failed) +
                               ",\"metrics\":" + metrics + "}";

    const std::string stem = a.workload + "-seed" + std::to_string(a.seed) +
                             (a.trace ? "-trace" : "");
    const std::filesystem::path out(a.out_dir);
    std::string record = "{\"context\":" + context + ",\"result\":" + result +
                         ",\"elements_by_second\":" + series;
    if (a.trace) {
        std::string self = "{";
        for (const auto& [l, ms] : tracer.self_ms()) {
            if (self.size() > 1) self += ',';
            self += quoted(l);
            self += ':';
            self += number(ms);
        }
        record += ",\"end_to_end_untraced\":" + metrics_json(kEndToEnd, e2e) +
                  ",\"self_ms\":" + self + "}";
        write_file(out / ("trace-" + stem + ".json"),
                   tracer.chrome_json(context.substr(0, context.size() - 1) +
                                      ",\"spans_dropped\":" +
                                      std::to_string(tracer.dropped()) + "}"));
    }
    write_file(out / ("result-" + stem + ".json"), record + "}\n");

    std::printf("# gas_bench %s\n", context.c_str());
    std::printf("%s\n", result.c_str());
    std::fflush(stdout);
    if (!correct) {
        std::fprintf(stderr, "gas_bench: output mismatch against the host reference\n");
        return 1;
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) try {
    const Args a = parse(argc, argv);
    if (a.list_metrics) {
        std::printf("{\"end_to_end\":%s,\"per_layer\":%s,\"workloads\":[",
                    metric_list_json(kEndToEnd).c_str(), metric_list_json(kPerLayer).c_str());
        for (std::size_t i = 0; i < workload_names().size(); ++i) {
            std::printf("%s%s", i ? "," : "", quoted(workload_names()[i]).c_str());
        }
        std::printf("]}\n");
        return 0;
    }
    if (a.selftest) return checker_selftest() == 0 ? 0 : 1;
    if (a.workload.empty()) usage("--workload is required");
    return run(a);
} catch (const std::exception& e) {
    std::fprintf(stderr, "gas_bench: %s\n", e.what());
    return 3;
}
