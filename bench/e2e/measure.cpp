#include "measure.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace efld::bench {

namespace {

std::size_t nearest_rank(double p, std::size_t n) {
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double Samples::percentile(double p) const {
    if (v_.empty()) return 0.0;
    std::vector<double> s = v_;
    const std::size_t rank = nearest_rank(p, s.size());
    std::nth_element(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(rank - 1), s.end());
    return s[rank - 1];
}

double Samples::mean() const {
    double sum = 0.0;
    for (const double v : v_) sum += v;
    return v_.empty() ? 0.0 : sum / static_cast<double>(v_.size());
}

std::size_t Samples::beyond(double p) const {
    return v_.empty() ? 0 : v_.size() - nearest_rank(p, v_.size());
}

void Report::e2e(std::string name, double value, std::string unit, std::size_t n) {
    metrics_.push_back({std::move(name), value, std::move(unit), n, std::nullopt, false});
}

void Report::layer(std::string name, double value, std::string unit, std::size_t n) {
    metrics_.push_back({std::move(name), value, std::move(unit), n, std::nullopt, true});
}

void Report::percentiles(const std::string& base, const Samples& ms,
                         std::initializer_list<double> ps, bool layer) {
    for (const double p : ps) {
        char name[96];
        std::snprintf(name, sizeof(name), "%s_p%g_ms", base.c_str(), p);
        metrics_.push_back({name, ms.percentile(p), "ms", ms.size(), ms.beyond(p), layer});
    }
}

void Report::check(std::string name, bool ok) {
    checks_.push_back({std::move(name), ok});
    if (!ok) ++failed;
}

bool Report::correct() const noexcept {
    return failed == 0 &&
           std::all_of(checks_.begin(), checks_.end(), [](const Check& c) { return c.ok; });
}

void SpanLog::request(std::string name, std::uint64_t id, std::uint64_t begin_ns,
                      std::uint64_t end_ns) {
    spans_.push_back({std::move(name), true, id, begin_ns, end_ns});
}

void SpanLog::slice(std::string name, std::uint32_t track, std::uint64_t begin_ns,
                    std::uint64_t end_ns) {
    spans_.push_back({std::move(name), false, track, begin_ns, end_ns});
}

std::string SpanLog::merge_into(const std::string& trace_json) const {
    // Chrome trace events: pid 1000 is the bench; async "b"/"e" pairs share
    // the request id, complete "X" slices sit on tid = track.
    constexpr unsigned kPid = 1000;
    std::string ev =
        "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1000,\"tid\":0,"
        "\"args\":{\"name\":\"bench\"}}";
    char buf[320];
    for (const Span& s : spans_) {
        const double ts = static_cast<double>(s.begin_ns) / 1000.0;
        const double end = static_cast<double>(s.end_ns) / 1000.0;
        if (s.async) {
            std::snprintf(buf, sizeof(buf),
                          ",{\"ph\":\"b\",\"cat\":\"request\",\"name\":\"%s\",\"id\":%" PRIu64
                          ",\"pid\":%u,\"tid\":1,\"ts\":%.3f,\"args\":{\"request\":%" PRIu64
                          "}},{\"ph\":\"e\",\"cat\":\"request\",\"name\":\"%s\",\"id\":%" PRIu64
                          ",\"pid\":%u,\"tid\":1,\"ts\":%.3f}",
                          s.name.c_str(), s.id, kPid, ts, s.id, s.name.c_str(), s.id, kPid,
                          end);
        } else {
            std::snprintf(buf, sizeof(buf),
                          ",{\"ph\":\"X\",\"cat\":\"bench\",\"name\":\"%s\",\"pid\":%u,"
                          "\"tid\":%" PRIu64 ",\"ts\":%.3f,\"dur\":%.3f}",
                          s.name.c_str(), kPid, s.id, ts, end - ts);
        }
        ev += buf;
    }
    // trace_json is `{"traceEvents":[...]}`: splice before the closing "]}".
    const std::size_t close = trace_json.rfind("]}");
    if (close == std::string::npos) return "{\"traceEvents\":[" + ev + "]}";
    const bool empty = trace_json.find_last_not_of(" \n", close - 1) ==
                       trace_json.find('[');
    return trace_json.substr(0, close) + (empty ? "" : ",") + ev + "]}";
}

}  // namespace efld::bench
