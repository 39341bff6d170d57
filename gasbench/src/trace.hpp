#pragma once

// Bench-side tracing: spans recorded by the benchmark's own code around each
// call into a layer's public functions.  Spans are kept in memory (the first
// kMaxKeptSpans of them) and written at exit as Chrome trace-event JSON;
// self time per layer is rolled up over every span as it closes.  A disabled
// tracer costs one branch per span.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gasbench {

/// Layer of a span: the part of its name before the first '.'
/// ("core.phase2" -> "core").
[[nodiscard]] std::string layer_of(const char* span_name);

class Tracer {
  public:
    struct Span {
        const char* name = "";
        double start_us = 0.0;
        double end_us = 0.0;
        std::int64_t id = 0;
        std::int64_t parent = -1;  ///< enclosing span id, -1 for a root
        std::uint64_t request = 0; ///< sort / request the span belongs to
        int track = 0;             ///< 0 = bench thread; >0 = in-flight slot
    };
    /// What close() reports about the span it ended.
    struct Closed {
        double dur_us = 0.0;
        double child_us = 0.0;  ///< time covered by direct children
    };

    static constexpr std::size_t kMaxKeptSpans = 20000;

    explicit Tracer(bool enabled);

    [[nodiscard]] bool enabled() const { return enabled_; }
    /// Microseconds since the tracer was created.
    [[nodiscard]] double now_us() const;

    /// Opens a span nested in the innermost open one (bench thread only).
    /// open, close and record do nothing when the tracer is disabled.
    void open(const char* name, std::uint64_t request = 0);
    /// Closes the innermost open span.
    Closed close();
    /// Records a finished span with an explicit interval, outside the nesting
    /// stack: used for a request's submit -> ready interval, which overlaps
    /// other requests.  It has no children, so its self time is its length.
    void record(const char* name, double start_us, double end_us, std::uint64_t request,
                int track);

    /// Self time per layer in ms, over every span closed so far.
    [[nodiscard]] const std::map<std::string, double>& self_ms() const { return self_ms_; }
    [[nodiscard]] std::uint64_t span_count() const { return next_id_; }
    [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

    /// Chrome trace-event JSON ("X" events); `metadata` is a JSON object
    /// written under "metadata".
    [[nodiscard]] std::string chrome_json(const std::string& metadata) const;

  private:
    struct Open {
        Span span;
        double child_us = 0.0;
    };
    void keep(const Span& s);

    bool enabled_;
    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<Open> stack_;
    std::map<std::string, double> self_ms_;
    std::int64_t next_id_ = 0;
    std::uint64_t dropped_ = 0;
};

/// RAII span on the bench thread; a no-op when the tracer is disabled.
class ScopedSpan {
  public:
    ScopedSpan(Tracer& tracer, const char* name, std::uint64_t request = 0)
        : tracer_(tracer) {
        tracer_.open(name, request);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;
    ~ScopedSpan() { tracer_.close(); }

  private:
    Tracer& tracer_;
};

}  // namespace gasbench
