// Per-phase cost attribution for the serve hot path.
//
// A Profiler answers "where did the nanoseconds go" for one engine shard:
// every phase of a request's journey (queue pick, admission, prefix probe,
// prefill, decode_batch, attention, sampling, retire) accumulates wall
// nanoseconds, and the decode step additionally attributes the backend's
// StepCost — simulated ns and weight walks — split between the prefill and
// decode rows that shared the step's weight walk. Totals are relaxed
// atomics (a handful of RMWs per span, cheap enough for per-token scopes);
// recent spans are kept in a bounded overwrite-oldest ring so the Perfetto
// exporter can draw a timeline of the last few thousand scopes without
// tracing ever stalling serving.
//
// Disabled is the default and costs one relaxed load per ScopedPhase.
// Defining EFLD_DISABLE_PROFILER compiles every scope to nothing for
// builds that must not carry even that load.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "obs/clock.hpp"
#include "obs/latency_histogram.hpp"
#include "obs/metrics_registry.hpp"

namespace efld::obs {

// One slot per instrumented phase. Slugs (to_string) name the exported
// metric series: serve_phase_<slug>_wall_ns etc.
enum class Phase : std::uint8_t {
    kQueuePick = 0,    // scheduler pick + admission predicate over the queue
    kAdmission = 1,    // slot binding + session construction for one admit
    kPrefixProbe = 2,  // prefix-index probe inside the admission predicate
    kPrefixAdopt = 3,  // adopting a covered prefix chain into a fresh slot
    kPrefill = 4,      // prompt rows' share of a decode step (attributed)
    kDecodeBatch = 5,  // decode rows' share of a decode step (attributed)
    // Backend attention blocks, one scope per layer per step inside decode.
    // A block is the whole attention half of the layer for every lane: the
    // RMSNorm, the Q/K/V/O projections, RoPE, the KV append and the
    // attention itself, so its share is not the cost of re-reading KV
    // history. That part grows with context: on a 4-core host bench-m b1 at
    // 4 threads goes from ~4.5 to ~6.2 ms per step between ctx 64 and 512,
    // and the micro-256 twin at b4 adds ~3.5 us per context token.
    kAttention = 6,
    kSampling = 7,     // logits -> token for one lane
    kRetire = 8,       // slot teardown + completion callbacks
    kCount = 9,
};

[[nodiscard]] const char* to_string(Phase p) noexcept;

// Accumulated cost of one phase since enable().
struct PhaseTotals {
    std::uint64_t count = 0;     // scopes (or attributed steps) recorded
    std::uint64_t wall_ns = 0;   // host wall time spent in the phase
    double sim_ns = 0.0;         // cycle-model simulated ns (accel backend)
    double weight_walks = 0.0;   // DDR weight-stream walks attributed
};

// One closed scope, for the timeline view.
struct SpanRecord {
    Phase phase = Phase::kQueuePick;
    std::uint32_t shard = 0;
    std::uint64_t begin_ns = 0;
    std::uint64_t end_ns = 0;
};

class Profiler {
public:
    Profiler() = default;
    Profiler(const Profiler&) = delete;
    Profiler& operator=(const Profiler&) = delete;

    // Turns profiling on for one shard. `span_capacity` bounds the span
    // ring (0 keeps totals but no timeline). Not thread-safe against
    // concurrent record calls — call before the driver starts.
    void enable(const Clock* clock, std::uint32_t shard_id,
                std::size_t span_capacity = 4096);

    // Resolves one serve_phase_<slug>_wall_ns histogram per phase in `reg`
    // so per-phase wall distributions ride the registry's snapshot. Without
    // a bound registry the series are never registered and stay absent
    // from scrapes — same discipline as the serve_prefix_* series.
    void bind_registry(MetricsRegistry& reg);

    [[nodiscard]] bool enabled() const noexcept {
#if defined(EFLD_DISABLE_PROFILER)
        return false;
#else
        return enabled_.load(std::memory_order_relaxed);
#endif
    }
    [[nodiscard]] std::uint32_t shard() const noexcept { return shard_; }
    [[nodiscard]] std::uint64_t now_ns() const noexcept {
        return clock_ ? clock_->now_ns() : 0;
    }

    // Closes a scope: totals, histogram, and (if capacity allows) the span
    // ring. Any thread.
    void record_span(Phase p, std::uint64_t begin_ns, std::uint64_t end_ns);

    // Totals-only accumulation (no timeline entry).
    void add_wall(Phase p, std::uint64_t wall_ns) noexcept;

    // Attributes one decode step's StepCost between kPrefill and
    // kDecodeBatch by row share: prefill_rows of the step's rows fed prompt
    // (or replayed) ids whose logits lead to no sample. The split is by
    // subtraction so the two phases' sim_ns sum EXACTLY to the step's
    // simulated_ns (the bench gate depends on it).
    void attribute_step(std::uint64_t wall_ns, double sim_ns,
                        double weight_walks, std::size_t prefill_rows,
                        std::size_t rows) noexcept;

    [[nodiscard]] PhaseTotals totals(Phase p) const noexcept;
    // Retained spans, oldest first.
    [[nodiscard]] std::vector<SpanRecord> spans() const;
    // Spans overwritten because the ring was full.
    [[nodiscard]] std::uint64_t spans_dropped() const;

    // Writes serve_phase_<slug>_{count,wall_ns,sim_ns}_total counters and
    // serve_phase_<slug>_weight_walks gauges for every phase with activity.
    void export_into(MetricsSnapshot& snap) const;

private:
    struct Slot {
        std::atomic<std::uint64_t> count{0};
        std::atomic<std::uint64_t> wall_ns{0};
        std::atomic<double> sim_ns{0.0};
        std::atomic<double> weight_walks{0.0};
    };

    void bump(Phase p, std::uint64_t wall_ns, double sim_ns,
              double weight_walks, std::uint64_t count_delta) noexcept;

    std::atomic<bool> enabled_{false};
    const Clock* clock_ = nullptr;
    std::uint32_t shard_ = 0;
    Slot slots_[static_cast<std::size_t>(Phase::kCount)];
    LatencyHistogram* hists_[static_cast<std::size_t>(Phase::kCount)] = {};

    std::size_t span_capacity_ = 0;
    mutable std::mutex span_mu_;
    std::vector<SpanRecord> span_ring_;  // grows to capacity, then wraps
    std::size_t span_next_ = 0;
    std::uint64_t span_dropped_ = 0;
};

// RAII phase scope. A null or disabled profiler costs one branch; defining
// EFLD_DISABLE_PROFILER compiles the whole object away.
class ScopedPhase {
public:
#if defined(EFLD_DISABLE_PROFILER)
    ScopedPhase(Profiler*, Phase) noexcept {}
#else
    ScopedPhase(Profiler* prof, Phase phase) noexcept
        : prof_(prof && prof->enabled() ? prof : nullptr),
          phase_(phase),
          begin_ns_(prof_ ? prof_->now_ns() : 0) {}
    ~ScopedPhase() {
        if (prof_) prof_->record_span(phase_, begin_ns_, prof_->now_ns());
    }
#endif
    ScopedPhase(const ScopedPhase&) = delete;
    ScopedPhase& operator=(const ScopedPhase&) = delete;

private:
#if !defined(EFLD_DISABLE_PROFILER)
    Profiler* prof_ = nullptr;
    Phase phase_ = Phase::kQueuePick;
    std::uint64_t begin_ns_ = 0;
#endif
};

}  // namespace efld::obs
