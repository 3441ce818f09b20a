#include "cluster/slo_controller.hpp"

#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "obs/trace.hpp"

namespace efld::cluster {

namespace {

const obs::Clock* resolve_clock(const SloController::Options& opts,
                                const ClusterRouter& router) {
    if (opts.clock != nullptr) return opts.clock;
    if (router.options().shard.clock != nullptr) {
        return router.options().shard.clock.get();
    }
    return &obs::steady_clock();
}

}  // namespace

SloController::SloController(ClusterRouter& router, Options opts)
    : router_(&router),
      opts_(std::move(opts)),
      clock_(resolve_clock(opts_, router)),
      store_(opts_.store),
      engine_(&store_),
      sampler_([this] { return router_->metrics_snapshot(); }, &store_,
               obs::MetricsSampler::Options{opts_.sample_interval_ns, clock_}) {
    for (obs::AlertRule& r : obs::parse_alert_rules(opts_.rules)) {
        engine_.add_rule(std::move(r));
    }
    if (!opts_.flight_dir.empty()) {
        obs::FlightRecorder::Options fr;
        fr.dir = opts_.flight_dir;
        fr.clock = clock_;
        fr.tail_window_ns = opts_.flight_tail_ns;
        recorder_ = std::make_unique<obs::FlightRecorder>(fr);
        if (opts_.capture_on_shard_failure) {
            router_->set_failure_observer([this](std::size_t shard) {
                capture_flight("shard_failure:" + std::to_string(shard));
            });
        }
    }
    engine_.subscribe([this](const obs::AlertRule& rule,
                             const obs::AlertEngine::Transition& t) {
        on_transition(rule, t);
    });
    sampler_.set_on_sample([this](std::uint64_t now_ns) {
        if (opts_.governor != nullptr) {
            // The shed sweep's TTFT estimate: mean of the merged shards'
            // first-token latency over the trailing 10s (0 = none landed).
            // Published before evaluation so a sweep engaged by this very
            // sample already judges by it.
            const obs::HistogramSnapshot h = store_.histogram_over(
                "serve_ttft_ns", 10'000'000'000ull, now_ns);
            opts_.governor->set_ttft_estimate_ns(h.count == 0 ? 0 : h.sum / h.count);
        }
        engine_.evaluate(now_ns);
    });
}

SloController::~SloController() { stop(); }

void SloController::start() { sampler_.start(); }
void SloController::stop() { sampler_.stop(); }

void SloController::on_transition(const obs::AlertRule& rule,
                                  const obs::AlertEngine::Transition& t) {
    // Trace the transition on the cluster's shared ring: request id carries
    // the rule index (alerts are cluster-scoped), arg the value x1000 so a
    // fractional burn rate survives the integer field.
    const std::shared_ptr<obs::TraceRecorder>& ring = router_->options().shard.trace;
    if (ring != nullptr) {
        obs::TraceEvent ev;
        bool traced = true;
        if (t.to == obs::AlertState::kPending) {
            ev = obs::TraceEvent::kAlertPending;
        } else if (t.to == obs::AlertState::kFiring) {
            ev = obs::TraceEvent::kAlertFiring;
        } else if (t.from == obs::AlertState::kFiring) {
            ev = obs::TraceEvent::kAlertResolved;
        } else {
            traced = false;  // pending cancelled before firing: not an incident
        }
        if (traced) {
            ring->record(t.rule, 0, ev,
                         static_cast<std::uint64_t>(t.value * 1000.0));
        }
    }
    if (t.to == obs::AlertState::kFiring) {
        log_warn("alert firing: ", rule.name, " (value ", t.value, ")");
        if (opts_.governor != nullptr) opts_.governor->on_alert_firing();
        if (opts_.capture_on_alert) capture_flight("alert:" + rule.name);
    } else if (t.from == obs::AlertState::kFiring &&
               t.to == obs::AlertState::kInactive) {
        log_info("alert resolved: ", rule.name);
        if (opts_.governor != nullptr) opts_.governor->on_alert_resolved();
    }
}

std::string SloController::capture_flight(const std::string& reason) {
    if (recorder_ == nullptr) return "";
    std::vector<obs::TraceRecord> trace;
    if (router_->options().shard.trace != nullptr) {
        trace = router_->options().shard.trace->snapshot();
    }
    const std::string path =
        recorder_->capture(reason, metrics_snapshot(), trace,
                           router_->profiler_spans(), &engine_, &store_);
    if (!path.empty()) log_info("flight bundle written: ", path);
    return path;
}

obs::MetricsSnapshot SloController::metrics_snapshot() const {
    obs::MetricsSnapshot snap = router_->metrics_snapshot();
    engine_.export_into(snap);
    snap.set_counter("slo_tsdb_ingests_total", store_.ingests());
    snap.set_counter("slo_tsdb_dropped_ingests_total", store_.dropped_ingests());
    snap.set_gauge("slo_tsdb_series", static_cast<double>(store_.series_names().size()));
    if (recorder_ != nullptr) {
        snap.set_counter("slo_flight_captures_total", recorder_->captures());
        snap.set_counter("slo_flight_suppressed_total", recorder_->suppressed());
    }
    return snap;
}

std::string SloController::alerts_json() const { return engine_.to_json(); }

std::string SloController::query_json(const std::string& series,
                                      std::uint64_t window_ns) const {
    return store_.query_json(series, window_ns, clock_->now_ns());
}

}  // namespace efld::cluster
