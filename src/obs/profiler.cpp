#include "obs/profiler.hpp"

#include <cmath>
#include <string>

namespace efld::obs {

namespace {

constexpr std::size_t kPhaseCount = static_cast<std::size_t>(Phase::kCount);

// fetch_add for atomic<double> is C++20 but some standard libraries still
// lack it; a CAS loop is equivalent and only runs at step rate.
void atomic_add(std::atomic<double>& a, double delta) noexcept {
    double cur = a.load(std::memory_order_relaxed);
    while (!a.compare_exchange_weak(cur, cur + delta,
                                    std::memory_order_relaxed)) {
    }
}

}  // namespace

const char* to_string(Phase p) noexcept {
    switch (p) {
        case Phase::kQueuePick: return "queue_pick";
        case Phase::kAdmission: return "admission";
        case Phase::kPrefixProbe: return "prefix_probe";
        case Phase::kPrefixAdopt: return "prefix_adopt";
        case Phase::kPrefill: return "prefill";
        case Phase::kDecodeBatch: return "decode_batch";
        case Phase::kAttention: return "attention";
        case Phase::kSampling: return "sampling";
        case Phase::kRetire: return "retire";
        case Phase::kCount: break;
    }
    return "unknown";
}

void Profiler::enable(const Clock* clock, std::uint32_t shard_id,
                      std::size_t span_capacity) {
    clock_ = clock ? clock : &steady_clock();
    shard_ = shard_id;
    span_capacity_ = span_capacity;
    span_ring_.reserve(span_capacity);
    enabled_.store(true, std::memory_order_release);
}

void Profiler::bind_registry(MetricsRegistry& reg) {
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
        const std::string name = std::string("serve_phase_") +
                                 to_string(static_cast<Phase>(i)) + "_wall_ns";
        hists_[i] = &reg.histogram(name);
    }
}

void Profiler::bump(Phase p, std::uint64_t wall_ns, double sim_ns,
                    double weight_walks, std::uint64_t count_delta) noexcept {
    Slot& s = slots_[static_cast<std::size_t>(p)];
    s.count.fetch_add(count_delta, std::memory_order_relaxed);
    s.wall_ns.fetch_add(wall_ns, std::memory_order_relaxed);
    if (sim_ns != 0.0) atomic_add(s.sim_ns, sim_ns);
    if (weight_walks != 0.0) atomic_add(s.weight_walks, weight_walks);
}

void Profiler::record_span(Phase p, std::uint64_t begin_ns,
                           std::uint64_t end_ns) {
    if (!enabled()) return;
    const std::uint64_t wall = end_ns > begin_ns ? end_ns - begin_ns : 0;
    bump(p, wall, 0.0, 0.0, 1);
    if (LatencyHistogram* h = hists_[static_cast<std::size_t>(p)]) {
        h->record(wall);
    }
    if (span_capacity_ == 0) return;
    const std::lock_guard<std::mutex> lock(span_mu_);
    if (span_ring_.size() < span_capacity_) {
        span_ring_.push_back({p, shard_, begin_ns, end_ns});
    } else {
        span_ring_[span_next_] = {p, shard_, begin_ns, end_ns};
        span_next_ = (span_next_ + 1) % span_capacity_;
        ++span_dropped_;
    }
}

void Profiler::add_wall(Phase p, std::uint64_t wall_ns) noexcept {
    if (!enabled()) return;
    bump(p, wall_ns, 0.0, 0.0, 1);
    if (LatencyHistogram* h = hists_[static_cast<std::size_t>(p)]) {
        h->record(wall_ns);
    }
}

void Profiler::attribute_step(std::uint64_t wall_ns, double sim_ns,
                              double weight_walks, std::size_t prefill_rows,
                              std::size_t rows) noexcept {
    if (!enabled() || rows == 0) return;
    if (prefill_rows > rows) prefill_rows = rows;
    const double share =
        static_cast<double>(prefill_rows) / static_cast<double>(rows);
    // Prefill takes its row share (rounded for the integer wall total);
    // decode takes the remainder by subtraction so sums stay exact.
    const std::uint64_t prefill_wall = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(wall_ns) * share));
    const double prefill_sim = sim_ns * share;
    const double prefill_walks = weight_walks * share;
    if (prefill_rows > 0) {
        bump(Phase::kPrefill, prefill_wall, prefill_sim, prefill_walks, 1);
        if (LatencyHistogram* h =
                hists_[static_cast<std::size_t>(Phase::kPrefill)]) {
            h->record(prefill_wall);
        }
    }
    const std::uint64_t decode_wall = wall_ns - prefill_wall;
    bump(Phase::kDecodeBatch, decode_wall, sim_ns - prefill_sim,
         weight_walks - prefill_walks, 1);
    if (LatencyHistogram* h =
            hists_[static_cast<std::size_t>(Phase::kDecodeBatch)]) {
        h->record(decode_wall);
    }
}

PhaseTotals Profiler::totals(Phase p) const noexcept {
    const Slot& s = slots_[static_cast<std::size_t>(p)];
    PhaseTotals t;
    t.count = s.count.load(std::memory_order_relaxed);
    t.wall_ns = s.wall_ns.load(std::memory_order_relaxed);
    t.sim_ns = s.sim_ns.load(std::memory_order_relaxed);
    t.weight_walks = s.weight_walks.load(std::memory_order_relaxed);
    return t;
}

std::vector<SpanRecord> Profiler::spans() const {
    const std::lock_guard<std::mutex> lock(span_mu_);
    std::vector<SpanRecord> out;
    out.reserve(span_ring_.size());
    if (span_ring_.size() == span_capacity_ && span_capacity_ > 0) {
        // Full ring: oldest entry sits at the overwrite cursor.
        for (std::size_t i = 0; i < span_ring_.size(); ++i) {
            out.push_back(span_ring_[(span_next_ + i) % span_capacity_]);
        }
    } else {
        out = span_ring_;
    }
    return out;
}

std::uint64_t Profiler::spans_dropped() const {
    const std::lock_guard<std::mutex> lock(span_mu_);
    return span_dropped_;
}

void Profiler::export_into(MetricsSnapshot& snap) const {
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
        const PhaseTotals t = totals(static_cast<Phase>(i));
        if (t.count == 0) continue;
        const std::string base =
            std::string("serve_phase_") + to_string(static_cast<Phase>(i));
        snap.set_counter(base + "_count_total", t.count);
        snap.set_counter(base + "_wall_ns_total", t.wall_ns);
        snap.set_counter(base + "_sim_ns_total",
                         static_cast<std::uint64_t>(std::llround(t.sim_ns)));
        snap.set_gauge(base + "_weight_walks", t.weight_walks);
    }
}

}  // namespace efld::obs
