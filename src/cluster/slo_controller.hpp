// The SLO loop's control plane: wires the TimeSeriesStore, AlertEngine,
// MetricsSampler, FlightRecorder, and OverloadGovernor into one closed loop
// around a ClusterRouter.
//
//   sample  — a background MetricsSampler snapshots the router's merged
//             metrics every interval and ingests them into the TSDB.
//   detect  — after every ingest the AlertEngine evaluates its rules
//             (threshold and multi-window burn-rate) against the store.
//   record  — every alert transition lands in the shared trace ring
//             (kAlertPending/kAlertFiring/kAlertResolved, request id = rule
//             index) and, on firing, triggers a flight-recorder bundle.
//   actuate — firing/resolving alerts engage/disengage the OverloadGovernor
//             in ServeOptions::overload, which the engines' shed sweep and
//             the router's admission/placement paths read directly. Every
//             sample also publishes the governor's TTFT estimate (the TSDB's
//             trailing-10s serve_ttft_ns mean) for the shed sweep.
//
// A shard failure ALSO triggers a flight capture, through the router's
// failure observer — registered by this controller when a flight directory
// is configured, after the failover sweep has settled so the bundle holds
// the harvest/resubmit trace events.
//
// Determinism: the controller adds no clocks of its own. sample_now() runs
// one full sample→ingest→evaluate cycle at the injected clock's current
// time, so a ManualClock test reproduces the whole alert lifecycle
// bit-identically with no thread; start() runs the identical cycle on the
// sampler's background thread for production.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "cluster/cluster_router.hpp"
#include "obs/alert_engine.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/time_series.hpp"
#include "serve/overload.hpp"

namespace efld::cluster {

class SloController {
public:
    struct Options {
        // Comma-separated alert rule specs (obs::parse_alert_rules grammar);
        // empty = sample into the TSDB but raise no alerts.
        std::string rules;
        std::uint64_t sample_interval_ns = 1'000'000'000;  // 1s
        // Timebase for samples, alert evaluation, and flight bundles. Null =
        // the router's shard clock if one was injected, else steady.
        const obs::Clock* clock = nullptr;
        // TSDB retention levels (default: 1s x 120 / 10s x 360 / 60s x 1440).
        obs::TimeSeriesStore::Options store;
        // Flight-recorder bundle directory; empty = no flight recorder (and
        // the router's failure observer is left untouched).
        std::string flight_dir;
        std::uint64_t flight_tail_ns = 120'000'000'000ull;
        // Capture a bundle when an alert starts firing / a shard fails.
        bool capture_on_alert = true;
        bool capture_on_shard_failure = true;
        // The actuator to engage on firing alerts — normally the SAME
        // governor placed in ServeOptions::overload before the router was
        // built. Null = detect-and-record only, no actuation.
        std::shared_ptr<serve::OverloadGovernor> governor;
    };

    // Non-owning of the router, which must outlive the controller. Parses
    // the rules eagerly (std::invalid_argument on a grammar error) and — when
    // a flight dir is configured — claims the router's failure observer, so
    // construct before start() and don't set another observer.
    SloController(ClusterRouter& router, Options opts);
    ~SloController();  // stops the sampler

    SloController(const SloController&) = delete;
    SloController& operator=(const SloController&) = delete;

    // Background sampling (production). Idempotent.
    void start();
    void stop();
    [[nodiscard]] bool running() const noexcept { return sampler_.running(); }

    // One deterministic sample→ingest→evaluate cycle at the clock's current
    // time — the ManualClock test path, and what the smoke script's scrape
    // loop rides on between background ticks.
    void sample_now() { sampler_.sample_once(); }

    // The router's merged snapshot plus the alert engine's serve_alert_*
    // series and the controller's own slo_* series — what the wire kMetrics
    // frame serves when an SLO controller is attached.
    [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() const;

    // Wire bodies: kAlerts → the engine's rules + timeline JSON; kQuery →
    // one series' TSDB tail over the trailing window.
    [[nodiscard]] std::string alerts_json() const;
    [[nodiscard]] std::string query_json(const std::string& series,
                                         std::uint64_t window_ns) const;

    // Manual flight capture (the smoke script's "dump now"); returns the
    // bundle path or "" (suppressed / no recorder).
    std::string capture_flight(const std::string& reason);

    [[nodiscard]] const obs::TimeSeriesStore& store() const noexcept {
        return store_;
    }
    [[nodiscard]] const obs::AlertEngine& engine() const noexcept {
        return engine_;
    }
    [[nodiscard]] const obs::FlightRecorder* recorder() const noexcept {
        return recorder_.get();
    }
    [[nodiscard]] std::uint64_t samples() const noexcept {
        return sampler_.samples();
    }

private:
    void on_transition(const obs::AlertRule& rule,
                       const obs::AlertEngine::Transition& t);

    ClusterRouter* router_;
    Options opts_;
    const obs::Clock* clock_;
    obs::TimeSeriesStore store_;
    obs::AlertEngine engine_;
    std::unique_ptr<obs::FlightRecorder> recorder_;
    obs::MetricsSampler sampler_;  // last member: its thread uses the rest
};

}  // namespace efld::cluster
