// Headline result (§I, §VII): ~5 token/s LLaMA2-7B decoding on the KV260 at
// ~85% of the theoretical bandwidth limit, across the context window.
//
// --check turns the reproduction into a paper-fidelity gate: exit 1 unless
// the generation-average rate is within 4.9 token/s +-5% and bandwidth
// utilization within 84.5% +-3 points.
#include <cmath>
#include <cstdio>
#include <cstring>

#include "accel/cycle_model.hpp"

using namespace efld;
using accel::DecodeCycleModel;
using accel::TokenTiming;

int main(int argc, char** argv) {
    const bool check = argc > 1 && std::strcmp(argv[1], "--check") == 0;
    std::printf("=== Headline: LLaMA2-7B decoding on KV260 (simulated) ===\n\n");
    const auto cfg = model::ModelConfig::llama2_7b();
    const auto scheme = model::QuantScheme::w4a16_kv8();

    // Theoretical ceiling, paper definition (4-bit weight transfers/second).
    const double theo = 19.2e9 / (static_cast<double>(cfg.layer_params() +
                                                      cfg.lm_head_params()) *
                                  0.5);
    std::printf("theoretical peak (Table II footnote 1): %.2f token/s\n\n", theo);

    std::printf("%6s | %9s | %7s | %11s | %11s | %10s\n", "ctx", "token/s", "util.%",
                "weights GB", "KV R+W MB", "latency ms");
    std::printf("--------------------------------------------------------------------\n");
    for (const std::size_t ctx : {0u, 64u, 128u, 256u, 512u, 768u, 1023u}) {
        DecodeCycleModel m(cfg, scheme, accel::AccelConfig{});
        const TokenTiming t = m.token_timing(ctx);
        std::printf("%6zu | %9.2f | %7.1f | %11.2f | %11.1f | %10.1f\n", ctx,
                    t.tokens_per_s(), 100.0 * t.tokens_per_s() / theo,
                    static_cast<double>(t.weight_bytes) / 1e9,
                    static_cast<double>(t.kv_read_bytes + t.kv_write_bytes) / 1e6,
                    t.total_ns / 1e6);
    }

    // Whole-generation average, as a deployment would see it.
    DecodeCycleModel m(cfg, scheme, accel::AccelConfig{});
    double total_ns = 0;
    std::size_t n = 0;
    for (std::size_t ctx = 32; ctx < 1024; ctx += 64) {  // sampled positions
        total_ns += m.token_timing(ctx).total_ns;
        ++n;
    }
    const double avg = static_cast<double>(n) * 1e9 / total_ns;
    std::printf("\ngeneration-average decode rate: %.2f token/s  -> %.1f%% of "
                "theoretical  [paper: 4.9 token/s, 84.5%%]\n",
                avg, 100.0 * avg / theo);
    if (!check) return 0;

    const double util_pct = 100.0 * avg / theo;
    const bool rate_ok = std::abs(avg - 4.9) <= 0.05 * 4.9;
    const bool util_ok = std::abs(util_pct - 84.5) <= 3.0;
    std::printf("check: decode rate %.2f in 4.9 +-5%%: %s\n", avg, rate_ok ? "ok" : "FAIL");
    std::printf("check: bandwidth utilization %.1f%% in 84.5 +-3 pts: %s\n", util_pct,
                util_ok ? "ok" : "FAIL");
    return rate_ok && util_ok ? 0 : 1;
}
