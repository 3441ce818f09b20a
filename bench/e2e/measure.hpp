// Measurement primitives of the end-to-end benchmark: raw sample sets with
// nearest-rank percentiles, the metric report a run prints and records, and
// the bench's own spans, which the traced run merges into its Perfetto file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/clock.hpp"

namespace efld::bench {

// Bench timestamps share the TraceRecorder/Profiler timebase, so bench
// spans and the program's own trace line up in one timeline.
[[nodiscard]] inline std::uint64_t now_ns() noexcept {
    return obs::steady_clock().now_ns();
}

// Raw samples of one quantity. A failed request is added as +infinity to
// every latency it would have had: it misses any limit.
class Samples {
public:
    void add(double v) { v_.push_back(v); }
    void merge(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
    [[nodiscard]] std::size_t size() const noexcept { return v_.size(); }
    [[nodiscard]] double mean() const;
    // Nearest-rank percentile, p in (0, 100]; 0 when empty.
    [[nodiscard]] double percentile(double p) const;
    // Samples ranked above the percentile's rank — the support of a tail
    // percentile (the benchmark wants at least 10).
    [[nodiscard]] std::size_t beyond(double p) const;
    [[nodiscard]] double median() const { return percentile(50.0); }

private:
    std::vector<double> v_;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t n = 1;  // samples behind the value
    // Percentiles only: samples ranked above the percentile's rank.
    std::optional<std::size_t> beyond;
    bool layer = false;  // per-layer (traced run) vs end-to-end
};

struct Check {
    std::string name;
    bool ok = false;
};

class Report {
public:
    void add(Metric m) { metrics_.push_back(std::move(m)); }
    void e2e(std::string name, double value, std::string unit, std::size_t n = 1);
    void layer(std::string name, double value, std::string unit, std::size_t n = 1);
    // `<base>_p<P>_ms` for each percentile of `ms` (e.g. ttft_p50_ms).
    void percentiles(const std::string& base, const Samples& ms,
                     std::initializer_list<double> ps, bool layer = false);
    void check(std::string name, bool ok);

    std::size_t attempted = 0;
    std::size_t failed = 0;  // rejected + errored + lost + failed checks

    [[nodiscard]] bool correct() const noexcept;
    [[nodiscard]] const std::vector<Metric>& metrics() const noexcept { return metrics_; }
    [[nodiscard]] const std::vector<Check>& checks() const noexcept { return checks_; }

private:
    std::vector<Metric> metrics_;
    std::vector<Check> checks_;
};

// Bench-side spans for the traced run's timeline. Request spans are async
// slices keyed by request id (they overlap freely); probe and submit spans
// are complete slices on one track each.
class SpanLog {
public:
    void request(std::string name, std::uint64_t id, std::uint64_t begin_ns,
                 std::uint64_t end_ns);
    void slice(std::string name, std::uint32_t track, std::uint64_t begin_ns,
               std::uint64_t end_ns);
    // Splices the spans into a `{"traceEvents":[...]}` document (the
    // program's own trace_json()), as process "bench".
    [[nodiscard]] std::string merge_into(const std::string& trace_json) const;

private:
    struct Span {
        std::string name;
        bool async = false;
        std::uint64_t id = 0;  // request id (async) or track (slice)
        std::uint64_t begin_ns = 0;
        std::uint64_t end_ns = 0;
    };
    std::vector<Span> spans_;
};

}  // namespace efld::bench
