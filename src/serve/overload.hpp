// Alert-driven overload protection: the actuator half of the SLO loop.
//
// The alert engine DETECTS overload (TTFT burn, queue depth); this governor
// is what the serving layer does about it. It is a tiny shared atomic state
// block: the SLO controller flips it on alert transitions, and the hot paths
// read it with relaxed loads —
//
//   ServeEngine      — while engaged, the queue sweep sheds deadline-HOPELESS
//                      requests (ones whose remaining budget cannot cover the
//                      published TTFT estimate) with FinishReason::
//                      kShedOverload before they ever take a slot, so the
//                      slots go to requests that can still meet their SLO.
//   ClusterRouter    — while engaged, try_submit's retry hints stretch by
//                      retry_hint_scale (callers back off harder), and
//                      placement drops to the degraded mode: skip the
//                      per-shard prefix-affinity probe (a per-submission
//                      cross-shard scan) and fall back to cheap load-only
//                      placement until the alert resolves.
//
// Engagement is a count of currently-firing subscribed alerts, so two
// overlapping alerts disengage only when BOTH resolve. The TTFT estimate the
// shed sweep judges hopelessness by is published here too, by the SLO
// controller after every sample: the mean of the TSDB's trailing-10s
// serve_ttft_ns histogram, merged across shards.
#pragma once

#include <atomic>
#include <cstdint>

namespace efld::serve {

class OverloadGovernor {
public:
    // Multiplier on try_submit retry hints while engaged.
    static constexpr double kRetryHintScale = 4.0;

    OverloadGovernor() = default;
    OverloadGovernor(const OverloadGovernor&) = delete;
    OverloadGovernor& operator=(const OverloadGovernor&) = delete;

    // Alert-transition wiring (the SLO controller's subscriber calls these).
    void on_alert_firing() noexcept {
        firing_.fetch_add(1, std::memory_order_acq_rel);
        engagements_.fetch_add(1, std::memory_order_relaxed);
    }
    void on_alert_resolved() noexcept {
        // Clamp at zero: a resolve without a matched firing (subscriber
        // attached mid-incident) must not wedge the count negative.
        int cur = firing_.load(std::memory_order_acquire);
        while (cur > 0 && !firing_.compare_exchange_weak(
                              cur, cur - 1, std::memory_order_acq_rel)) {
        }
    }

    [[nodiscard]] bool engaged() const noexcept {
        return firing_.load(std::memory_order_acquire) > 0;
    }
    [[nodiscard]] double retry_hint_scale() const noexcept {
        return engaged() ? kRetryHintScale : 1.0;
    }

    // Cluster-wide TTFT estimate in ns; 0 = no data (the sweep never sheds).
    void set_ttft_estimate_ns(std::uint64_t ns) noexcept {
        ttft_estimate_ns_.store(ns, std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t ttft_estimate_ns() const noexcept {
        return ttft_estimate_ns_.load(std::memory_order_relaxed);
    }

    // Bookkeeping read back by metrics exposition.
    void count_shed() noexcept {
        shed_.fetch_add(1, std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t shed_total() const noexcept {
        return shed_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t engagements() const noexcept {
        return engagements_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<int> firing_{0};
    std::atomic<std::uint64_t> engagements_{0};
    std::atomic<std::uint64_t> shed_{0};
    std::atomic<std::uint64_t> ttft_estimate_ns_{0};
};

}  // namespace efld::serve
