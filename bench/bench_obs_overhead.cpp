// Observability-overhead smoke gate: serving throughput with the per-phase
// profiler ON — and separately with the full SLO stack (TSDB sampler +
// alert evaluation) running against the live engine — must stay within a
// few percent of everything-OFF.
//
// The profiler's hot-path contract is "cheap enough to leave on": scoped
// spans are two clock reads plus relaxed atomic adds, and the span ring is
// touched only on control-plane phases (admission, retire) or per-step, not
// per weight element. The SLO stack's contract is "off the hot path
// entirely": a background thread snapshots metrics, ingests into the
// time-series store, and evaluates alert rules — the engine only pays the
// snapshot's atomic reads. This bench measures the same continuous-batching
// workload all three ways (median of --reps paired ratios, arm order
// rotated) and gates each ratio — profiler >= 0.95x (it instruments the
// driver thread itself), SLO stack >= 0.97x (it must stay off that thread
// entirely). A regression here means someone put real work on an
// instrumented path.
//
// `--json [path]` emits a BENCH_obs_overhead.json perf record; archive it
// with scripts/bench_archive.sh.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "obs/alert_engine.hpp"
#include "obs/time_series.hpp"
#include "runtime/serve.hpp"

using namespace efld;

namespace {

enum class Mode { kOff, kProfiler, kSlo };

// Driver-thread CPU seconds. The gate is about work ON the serving path, so
// the clock must not charge the driver for scheduler preemption (wall time
// on a 1-core CI container is mostly noise) nor for the SLO stack's own
// background thread (whose CPU share is a deliberate, bounded tax — what
// must stay clean is the engine's step loop).
double thread_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) / 1e9;
}

double run_once(const model::QuantizedModelWeights& qw, Mode mode,
                std::size_t requests, std::size_t max_new) {
    serve::ServeOptions opts;
    opts.max_batch = 4;
    opts.max_queue = requests;
    opts.sampler.temperature = 0.0f;
    opts.profile = mode == Mode::kProfiler;
    serve::ServeEngine eng(qw, opts);

    // The SLO arm runs the full detection pipeline at an aggressive 10ms
    // cadence (100x the 1s production default): snapshot -> TSDB ingest ->
    // alert evaluation, with live threshold + burn-rate rules that never
    // fire. Each cycle snapshots the whole registry (string-keyed maps), so
    // the cadence is the overhead knob — 10ms keeps the background thread's
    // CPU share proportionate to what any sane deployment would run. The
    // throughput metric divides by driver-thread CPU time, so this arm gates
    // what the ENGINE pays (snapshot locks + atomic reads), not the
    // background thread's own cycles.
    std::unique_ptr<obs::TimeSeriesStore> store;
    std::unique_ptr<obs::AlertEngine> alerts;
    std::unique_ptr<obs::MetricsSampler> sampler;
    if (mode == Mode::kSlo) {
        store = std::make_unique<obs::TimeSeriesStore>(
            obs::TimeSeriesStore::Options{});
        alerts = std::make_unique<obs::AlertEngine>(store.get());
        for (const obs::AlertRule& r : obs::parse_alert_rules(
                 "depth=threshold:serve_queued:gt:1000000:0,"
                 "ttft=burnrate:serve_ttft_ns:60000:0.999:14:3600s:300s")) {
            alerts->add_rule(r);
        }
        obs::MetricsSampler::Options so;
        so.interval_ns = 10'000'000;  // 10ms
        sampler = std::make_unique<obs::MetricsSampler>(
            [&eng] { return eng.metrics_snapshot(); }, store.get(), so);
        sampler->set_on_sample(
            [&alerts](std::uint64_t now_ns) { alerts->evaluate(now_ns); });
        sampler->start();
    }

    std::vector<serve::RequestHandle> futs;
    futs.reserve(requests);
    for (std::size_t r = 0; r < requests; ++r) {
        futs.push_back(eng.submit(serve::Request{
            .prompt = "overhead probe " + std::to_string(r),
            .max_new_tokens = max_new}));
    }
    const double cpu0 = thread_cpu_s();
    eng.run_until_idle();
    const double s = thread_cpu_s() - cpu0;
    for (auto& f : futs) (void)f.get();
    if (sampler) sampler->stop();
    return static_cast<double>(eng.stats().generated_tokens) / s;
}

}  // namespace

int main(int argc, char** argv) {
    std::size_t requests = 16;
    std::size_t max_new = 32;
    std::size_t reps = 7;
    bool emit_json = false;
    std::string json_path = "BENCH_obs_overhead.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
            requests = std::max<std::size_t>(1, std::stoul(argv[++i]));
        } else if (std::strcmp(argv[i], "--tokens") == 0 && i + 1 < argc) {
            max_new = std::max<std::size_t>(1, std::stoul(argv[++i]));
        } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
            reps = std::max<std::size_t>(1, std::stoul(argv[++i]));
        } else if (std::strcmp(argv[i], "--json") == 0) {
            emit_json = true;
            if (i + 1 < argc && argv[i + 1][0] != '-') json_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--requests R] [--tokens N] [--reps K] "
                         "[--json [path]]\n",
                         argv[0]);
            return 2;
        }
    }

    const model::ModelConfig cfg = model::ModelConfig::micro_256();
    const model::ModelWeights fw = model::ModelWeights::synthetic(cfg, 42);
    const model::QuantizedModelWeights qw =
        model::QuantizedModelWeights::quantize(fw, quant::GroupQuantConfig{});

    std::printf(
        "=== Profiler overhead: %s, host backend, %zu requests x %zu tokens, "
        "best of %zu ===\n\n",
        cfg.name.c_str(), requests, max_new, reps);

    // One unmeasured warmup absorbs first-touch page faults and allocator
    // warm-up, which would otherwise be charged entirely to the first arm.
    (void)run_once(qw, Mode::kOff, requests, max_new);

    // The three arms of one rep run back to back, so they see the same
    // machine conditions; the per-rep RATIO is the low-noise statistic, and
    // the median across reps discards the reps a scheduler hiccup corrupted.
    // (Best-of-K per arm is not enough on small containers: the arms' "best"
    // windows need not coincide.) The arm ORDER rotates each rep: clock
    // frequency drifts downward through a rep on thermally-limited boxes,
    // and a fixed order would hand the first arm a systematic edge.
    double best_off = 0.0;
    double best_prof = 0.0;
    double best_slo = 0.0;
    std::vector<double> ratios_prof, ratios_slo;
    for (std::size_t k = 0; k < reps; ++k) {
        double off = 0.0, prof = 0.0, slo = 0.0;
        static constexpr Mode kOrders[3][3] = {
            {Mode::kOff, Mode::kProfiler, Mode::kSlo},
            {Mode::kProfiler, Mode::kSlo, Mode::kOff},
            {Mode::kSlo, Mode::kOff, Mode::kProfiler},
        };
        for (Mode m : kOrders[k % 3]) {
            const double v = run_once(qw, m, requests, max_new);
            (m == Mode::kOff ? off : m == Mode::kProfiler ? prof : slo) = v;
        }
        best_off = std::max(best_off, off);
        best_prof = std::max(best_prof, prof);
        best_slo = std::max(best_slo, slo);
        if (off > 0.0) {
            ratios_prof.push_back(prof / off);
            ratios_slo.push_back(slo / off);
        }
    }
    const auto median = [](std::vector<double> v) {
        if (v.empty()) return 0.0;
        std::sort(v.begin(), v.end());
        return v[v.size() / 2];
    };
    const double ratio_prof = median(ratios_prof);
    const double ratio_slo = median(ratios_slo);
    // The profiler instruments the driver thread itself (scoped spans on
    // every phase), so its CPU-time cost is real if small — gate at 0.95.
    // The SLO stack must be entirely off the driver thread — gate at 0.97.
    const bool prof_ok = ratio_prof >= 0.95;
    const bool slo_ok = ratio_slo >= 0.97;
    const bool ok = prof_ok && slo_ok;

    std::printf("everything off:      %10.2f tok/cpu-s (best of %zu)\n",
                best_off, reps);
    std::printf("profiler on:         %10.2f tok/cpu-s\n", best_prof);
    std::printf("slo stack @10ms:     %10.2f tok/cpu-s\n", best_slo);
    std::printf("\nratio profiler/off: %.4f median (gate: >= 0.95) — %s\n",
                ratio_prof, prof_ok ? "ok" : "FAIL");
    std::printf("ratio slo/off:      %.4f median (gate: >= 0.97) — %s\n",
                ratio_slo, slo_ok ? "ok" : "FAIL");

    if (emit_json) {
        std::ofstream out(json_path);
        out << "{\n"
            << "  \"bench\": \"obs_overhead\",\n"
            << "  \"model\": \"" << cfg.name << "\",\n"
            << "  \"requests\": " << requests << ",\n"
            << "  \"max_new_tokens\": " << max_new << ",\n"
            << "  \"reps\": " << reps << ",\n"
            << "  \"tok_s_off\": " << best_off << ",\n"
            << "  \"tok_s_profiler_on\": " << best_prof << ",\n"
            << "  \"tok_s_slo_stack\": " << best_slo << ",\n"
            << "  \"ratio_profiler\": " << ratio_prof << ",\n"
            << "  \"ratio_slo\": " << ratio_slo << ",\n"
            << "  \"ok\": " << (ok ? "true" : "false") << "\n"
            << "}\n";
        std::printf("wrote %s\n", json_path.c_str());
    }
    return ok ? 0 : 1;
}
