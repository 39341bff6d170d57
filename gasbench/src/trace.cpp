#include "trace.hpp"

#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace gasbench {

std::string layer_of(const char* span_name) {
    const char* dot = std::strchr(span_name, '.');
    return dot == nullptr ? std::string(span_name) : std::string(span_name, dot);
}

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

double Tracer::now_us() const {
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - epoch_)
        .count();
}

void Tracer::keep(const Span& s) {
    if (spans_.size() < kMaxKeptSpans) {
        spans_.push_back(s);
    } else {
        ++dropped_;
    }
}

void Tracer::open(const char* name, std::uint64_t request) {
    if (!enabled_) return;
    Open o;
    o.span.name = name;
    o.span.id = next_id_++;
    o.span.parent = stack_.empty() ? -1 : stack_.back().span.id;
    o.span.request = request;
    o.span.start_us = now_us();
    stack_.push_back(o);
}

Tracer::Closed Tracer::close() {
    if (!enabled_) return {};
    if (stack_.empty()) throw std::logic_error("Tracer::close without an open span");
    Open o = stack_.back();
    stack_.pop_back();
    o.span.end_us = now_us();
    const double dur = o.span.end_us - o.span.start_us;
    self_ms_[layer_of(o.span.name)] += (dur - o.child_us) / 1e3;
    if (!stack_.empty()) stack_.back().child_us += dur;
    keep(o.span);
    return {dur, o.child_us};
}

void Tracer::record(const char* name, double start_us, double end_us, std::uint64_t request,
                    int track) {
    if (!enabled_) return;
    Span s;
    s.name = name;
    s.id = next_id_++;
    s.start_us = start_us;
    s.end_us = end_us;
    s.request = request;
    s.track = track;
    self_ms_[layer_of(name)] += (end_us - start_us) / 1e3;
    keep(s);
}

std::string Tracer::chrome_json(const std::string& metadata) const {
    std::string out = "{\"traceEvents\":[";
    char buf[512];
    bool first = true;
    for (const Span& s : spans_) {
        std::snprintf(buf, sizeof(buf),
                      "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                      "\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%lld,"
                      "\"parent\":%lld,\"request\":%llu}}",
                      first ? "" : ",", s.name, layer_of(s.name).c_str(), s.start_us,
                      s.end_us - s.start_us, s.track, static_cast<long long>(s.id),
                      static_cast<long long>(s.parent),
                      static_cast<unsigned long long>(s.request));
        out += buf;
        first = false;
    }
    out += "\n],\"displayTimeUnit\":\"ms\",\"metadata\":";
    out += metadata;
    out += "}\n";
    return out;
}

}  // namespace gasbench
