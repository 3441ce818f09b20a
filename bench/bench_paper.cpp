// Paper fidelity gate: every checkable claim of the paper as one row.
//
// A row names where the claim comes from (table, figure or section), what is
// measured, the reading, and the paper's value with the band the reading must
// fall in. A qualitative claim (an ordering, fits / does not fit, monotone in
// a parameter) is a row whose band is the claim itself. Tables II and III are
// printed in full first. Exits 1 when any gated row is out of band; a
// known-open row is printed for the record and never sets the exit status.
// Takes no flags.
//
// Run: ./build/bench/bench_paper   (~10 s on one core; every reading is
// deterministic)
#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "accel/cycle_model.hpp"
#include "analytic/comparison.hpp"
#include "analytic/power_model.hpp"
#include "analytic/resource_model.hpp"
#include "analytic/roofline.hpp"
#include "common/bitpack.hpp"
#include "common/mathutil.hpp"
#include "common/rng.hpp"
#include "memsim/memory_system.hpp"
#include "model/reference_engine.hpp"
#include "model/sampler.hpp"
#include "quant/awq.hpp"
#include "quant/weight_format.hpp"
#include "runtime/memory_planner.hpp"

using namespace efld;
using accel::AccelConfig;
using accel::DecodeCycleModel;
using memsim::Dir;
using memsim::TransactionStream;
using model::QuantScheme;
using runtime::MemoryPlanner;

namespace {

struct Claim {
    std::string source;    // table / figure / section of the paper
    std::string what;
    std::string measured;
    std::string paper;     // the paper's value, and the band the reading must meet
    bool in_band = false;
    bool gated = true;     // false: known-open, printed but never fails the run
    std::string note = {};
};

const char* fits_text(bool fits) { return fits ? "fits" : "does not fit"; }

std::string fmt(const char* f, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char* f, ...) {
    char buf[512];
    va_list ap;
    va_start(ap, f);
    std::vsnprintf(buf, sizeof buf, f, ap);
    va_end(ap);
    return buf;
}

const model::ModelConfig kLlama = model::ModelConfig::llama2_7b();
const QuantScheme kW4 = QuantScheme::w4a16_kv8();

// §I/§VII: ~4.9 token/s at 84.5 % of the bandwidth limit. Returns the
// generation-average rate (ctx 32, 96, ..., 992), which Tables II/III use.
double headline(std::vector<Claim>& out) {
    const double params =
        static_cast<double>(kLlama.layer_params() + kLlama.lm_head_params());
    const double peak = 19.2e9 / (params * 0.5);  // Table II footnote 1, 4-bit weights
    DecodeCycleModel m(kLlama, kW4, AccelConfig{});
    double total_ns = 0;
    std::size_t n = 0;
    for (std::size_t ctx = 32; ctx < 1024; ctx += 64, ++n)
        total_ns += m.token_timing(ctx).total_ns;
    const double rate = static_cast<double>(n) * 1e9 / total_ns;
    const double util = 100.0 * rate / peak;
    out.push_back({"Headline", "generation-average decode rate", fmt("%.2f tok/s", rate),
                   "4.9 tok/s +-5 %", std::abs(rate - 4.9) <= 0.05 * 4.9});
    out.push_back({"Headline", "bandwidth utilization", fmt("%.1f %%", util),
                   "84.5 % +-3 pts", std::abs(util - 84.5) <= 3.0, true,
                   fmt("peak %.2f tok/s = 19.2 GB/s over %.3fe9 layer+lm_head params at "
                       "4 bit; the stored W4 image (scales, zeros, embedding) caps the rate "
                       "at %.2f tok/s, so utilization stays below 100 %% by construction",
                       peak, params / 1e9,
                       model::theoretical_tokens_per_s(kLlama, kW4, 19.2e9))});
    return rate;
}

void table1(std::vector<Claim>& out) {
    using namespace analytic;
    const ResourceBreakdown r = ResourceModel::estimate(ArchParams{});
    const FpgaDevice dev = FpgaDevice::kv260();
    const double lut = r.total().lut;
    const double watts = PowerModel::estimate(r, 300.0).total_w();
    ArchParams wide;
    wide.vpu_lanes = 256;
    out.push_back({"Table I", "LUTs", fmt("%.1fK", lut / 1e3), "78K +-3 %",
                   std::abs(lut - 78e3) <= 0.03 * 78e3});
    out.push_back({"Table I", "power at 300 MHz", fmt("%.2f W", watts), "6.57 W +-0.25 W",
                   std::abs(watts - 6.57) <= 0.25});
    const bool fits = ResourceModel::fits(r, dev, 0.25);
    const bool wide_fits = ResourceModel::fits(ResourceModel::estimate(wide), dev, 0.25);
    out.push_back({"Table I", "fits the KV260 under the 75 % ceiling", fits_text(fits),
                   "fits", fits});
    out.push_back({"Sec. VI.B", "256-lane VPU variant does not fit", fits_text(wide_fits),
                   "does not fit", !wide_fits});
}

void tables2_3(std::vector<Claim>& out, double rate) {
    const auto t2 = analytic::build_table2(rate);
    const auto t3 = analytic::build_table3(rate);
    std::printf("=== Table II: comparison with FPGA accelerators (Ours = headline rate) "
                "===\n\n");
    analytic::print_table2(std::cout, t2);
    std::printf("\n=== Table III: comparison with embedded CPU/GPUs (4-bit LLaMA2-7B) "
                "===\n\n");
    analytic::print_table3(std::cout, t3);
    std::printf("\n");

    const double ours = t2.back().perf.utilization_pct();
    double best_other = 0;
    for (std::size_t i = 0; i + 1 < t2.size(); ++i)
        best_other = std::max(best_other, t2[i].perf.utilization_pct());
    out.push_back({"Table II", "Ours has the highest utilization of the FPGAs",
                   fmt("%.1f vs %.1f %%", ours, best_other), "highest", ours > best_other});

    double nano = 0;
    for (const auto& r : t3)
        if (r.row.device == "JetsonOrinNano") nano = r.perf.utilization_pct();
    const double gap = ours - nano;
    out.push_back({"Table III", "utilization: Ours - Orin Nano/NanoLLM",
                   fmt("%+.1f pts", gap), "~6 pts +-1", std::abs(gap - 6.0) <= 1.0, false,
                   fmt("known-open: Ours models %.1f %% (paper 84.5 %%), Orin Nano/NanoLLM "
                       "reads %.1f %% (paper 79.2 %%)",
                       ours, nano)});
}

void fig1(std::vector<Claim>& out) {
    const auto plan = [](const QuantScheme& s) {
        return MemoryPlanner::plan_kv260(kLlama, s);
    };
    const runtime::MemoryPlan w4 = plan(kW4);
    const double pct = 100.0 * w4.utilization;
    out.push_back({"Fig. 1", "DDR capacity utilization (W4, KV8, 1024 tok)",
                   fmt("%.1f %%", pct), "93.3 % +-1 pt", std::abs(pct - 93.3) <= 1.0, true,
                   fmt("our accounting keeps the embedding table fp16 and the lm_head W4: "
                       "%.0f MiB of weights against the paper's 3556 MB, hence %.1f vs "
                       "93.3 %%",
                       static_cast<double>(w4.weight_bytes) / double(kMiB), pct)});
    const bool w8 = plan(QuantScheme::w8a16_kv8()).fits;
    const bool fp16 = plan(QuantScheme::fp16_baseline()).fits;
    out.push_back({"Fig. 1", "W4 fits 4 GiB; W8 and FP16 do not",
                   std::string("fits:") + (w4.fits ? " W4" : "") + (w8 ? " W8" : "") +
                       (fp16 ? " FP16" : ""),
                   "fits: W4",
                   w4.fits && !w8 && !fp16});
    const auto max_ctx = MemoryPlanner::max_context(kLlama, kW4, 4 * kGiB, 1 * kMiB);
    out.push_back({"Fig. 1", "max context beside the W4 weights",
                   fmt("%llu tok", static_cast<unsigned long long>(max_ctx)), ">= 1024 tok",
                   max_ctx >= 1024});
    const bool with_os = MemoryPlanner::fits_with_os(kLlama, kW4, 4 * kGiB, 512 * kMiB);
    out.push_back({"Fig. 1", "no fit beside a 512 MiB OS (bare metal)", fits_text(with_os),
                   "does not fit", !with_os});
}

// Fig. 3: the head-wise fused pipeline hides every SPU op in the weight
// stream; a DFX-style coarse pipeline exposes them.
void fig3(std::vector<Claim>& out) {
    AccelConfig coarse;
    coarse.fine_grained_fusion = false;
    DecodeCycleModel fine(kLlama, kW4, AccelConfig{});
    DecodeCycleModel dfx(kLlama, kW4, coarse);
    int coarse_slower = 0;
    for (const std::size_t ctx : {0u, 128u, 256u, 512u, 768u, 1023u})
        coarse_slower += dfx.token_timing(ctx).total_ns > fine.token_timing(ctx).total_ns;
    const accel::TokenTiming t = fine.token_timing(512, /*collect_ops=*/true);
    std::size_t hidden = 0, with_spu = 0;
    for (const auto& op : t.ops) {
        if (op.spu_ns > 0.0) {
            ++with_spu;
            hidden += op.spu_hidden ? 1 : 0;
        }
    }
    out.push_back({"Fig. 3", "exposed misc (SPU) time at ctx 512",
                   fmt("%.0f ns, %zu/%zu hidden", t.spu_exposed_ns, hidden, with_spu),
                   "0 (no penalty)", t.spu_exposed_ns == 0.0 && hidden == with_spu});
    out.push_back({"Fig. 3", "coarse fusion slower at ctx 0..1023",
                   fmt("slower at %d/6", coarse_slower), "slower at all",
                   coarse_slower == 6});
}

double busy_ns(const TransactionStream& s) {
    memsim::MemorySystem mem(memsim::MemorySystemConfig::kv260());
    return mem.run(s).busy_ns;
}

// Fig. 4: bus-width aligned arrangement of weights (A) and KV scalars (B).
void fig4(std::vector<Claim>& out) {
    // A: one 4096x4096 group-128 layer; interleaved stream vs weights plus
    // separate fp16 scale and zero-point tables read group by group.
    const std::size_t groups = 4096 * 4096 / quant::kFormatGroupSize;
    const TransactionStream interleaved{
        {0, quant::stream_words(groups) * kBusBytes, Dir::kRead}};
    TransactionStream side;
    const std::uint64_t scale_base = 1ull << 31, zero_base = scale_base + (1ull << 28);
    for (std::size_t g = 0; g < groups; ++g) {
        side.push_back({g * kBusBytes, kBusBytes, Dir::kRead});
        side.push_back({scale_base + g * 2, 2, Dir::kRead});
        side.push_back({zero_base + g, 1, Dir::kRead});
    }
    const double a = busy_ns(side) / busy_ns(interleaved);
    out.push_back({"Fig. 4A", "interleaved weights vs side tables", fmt("%.1fx faster", a),
                   "faster (> 1x)", a > 1.0});

    // B: 2 x 32 layers x 32 heads KV scalar streams over 1024 tokens; one
    // packed 64 B word per 16 tokens vs 4 B per token.
    const std::size_t streams = 2 * 32 * 32, tokens = 1024;
    const std::uint64_t kv_base = 3ull << 30;
    TransactionStream packed, scalar;
    for (std::size_t t = 0; t < tokens; ++t) {
        for (std::size_t s = 0; s < streams; ++s) {
            const std::uint64_t base = kv_base + s * tokens * 4;
            if (t % 16 == 15)
                packed.push_back({base + (t / 16) * kBusBytes, kBusBytes, Dir::kWrite});
            scalar.push_back({base + t * 4, 4, Dir::kWrite});
        }
    }
    const double b = busy_ns(scalar) / busy_ns(packed);
    out.push_back({"Fig. 4B", "FIFO-packed KV scalars vs per-scalar writes",
                   fmt("%.1fx faster", b), "faster (> 1x)", b > 1.0});
}

// §VI.A: four 128-bit HP ports are needed to expose the full 19.2 GB/s.
void ports(std::vector<Claim>& out) {
    std::string rates;
    double prev = 0, peak = 0;
    bool rising = true;
    for (const unsigned n : {1u, 2u, 3u, 4u}) {
        memsim::MemorySystemConfig mem = memsim::MemorySystemConfig::kv260();
        mem.axi.num_ports = n;
        DecodeCycleModel m(kLlama, kW4, AccelConfig{}, mem);
        const double rate = m.token_timing(512).tokens_per_s();
        rising &= rate > prev;
        prev = rate;
        peak = mem.axi.peak_bytes_per_s();
        rates += fmt("%s%.2f", n == 1 ? "" : "<", rate);
    }
    out.push_back({"Sec. VI.A", "tok/s rises with HP ports 1..4", rates,
                   "rising to 19.2 GB/s",
                   rising && std::abs(peak - 19.2e9) < 1e6, true,
                   fmt("4 ports expose %.1f GB/s to the PL", peak / 1e9)});
}

// §V.B: long sequential bursts beat short discontinuous ones.
void burst(std::vector<Claim>& out) {
    const auto efficiency = [](std::uint64_t burst_bytes, bool sequential) {
        memsim::MemorySystem mem(memsim::MemorySystemConfig::kv260());
        TransactionStream s;
        std::uint64_t addr = 0;
        for (std::uint64_t moved = 0; moved < (64ull << 20); moved += burst_bytes) {
            s.push_back({addr, burst_bytes, Dir::kRead});
            addr += sequential ? burst_bytes : burst_bytes + 1048576 + 8192;  // hop rows
        }
        return mem.run(s).achieved_bw() / mem.peak_bytes_per_s();
    };
    double prev = 0, first = 0, last = 0;
    bool monotone = true;
    int disc_below = 0;
    for (const std::uint64_t b :
         {64ull, 128ull, 256ull, 512ull, 1024ull, 2048ull, 4096ull, 16384ull, 65536ull}) {
        const double seq = efficiency(b, true);
        monotone &= seq >= prev;
        disc_below += efficiency(b, false) <= seq;
        prev = last = seq;
        if (b == 64) first = seq;
    }
    out.push_back({"Sec. V.B", "sequential efficiency vs burst 64 B..64 KiB",
                   fmt("%.0f%% -> %.0f%%", 100 * first, 100 * last), "non-decreasing",
                   monotone});
    out.push_back({"Sec. V.B", "discontinuous efficiency <= sequential",
                   fmt("at %d/9 bursts", disc_below), "at all", disc_below == 9});
}

// §IV.B: KV8 over KV16 for capacity.
void kv_precision(std::vector<Claim>& out) {
    QuantScheme kv16 = kW4;
    kv16.kv_bits = 16;
    const auto c8 = MemoryPlanner::max_context(kLlama, kW4, 4 * kGiB, 1 * kMiB);
    const auto c16 = MemoryPlanner::max_context(kLlama, kv16, 4 * kGiB, 1 * kMiB);
    out.push_back({"Sec. IV.B", "max ctx: KV8 >= 1024 and > KV16",
                   fmt("%llu vs %llu tok", static_cast<unsigned long long>(c8),
                       static_cast<unsigned long long>(c16)),
                   "KV8 >= 1024, > KV16", c8 >= 1024 && c8 > c16});
}

// Cosine of the last logits of a 12-step teacher-forced greedy rollout;
// `golden_slot` is a slot reserved on `golden` (reset() keeps reservations).
double rollout_cosine(model::ReferenceEngine& golden, std::size_t golden_slot,
                      model::ReferenceEngine&& test) {
    golden.reset();
    const std::size_t test_slot = test.reserve_slot();
    std::span<const float> lg, lt;
    std::int32_t tok = 1;
    for (int i = 0; i < 12; ++i) {
        lg = golden.decode_batch(std::span(&tok, 1), std::span(&golden_slot, 1));
        lt = test.decode_batch(std::span(&tok, 1), std::span(&test_slot, 1));
        tok = model::Sampler::argmax(lg);
    }
    return cosine_similarity(lg, lt);
}

// §IV: AWQ W4A16 weights and an 8-bit KV cache.
void quantization(std::vector<Claim>& out) {
    // AWQ scale search on a 16x512 layer with salient input channels.
    Xoshiro256 rng(123);
    const std::size_t rows = 16, cols = 512, samples = 8;
    std::vector<float> w(rows * cols), calib(samples * cols);
    for (auto& x : w) x = static_cast<float>(rng.gaussian(0.0, 0.05));
    for (std::size_t s = 0; s < samples; ++s)
        for (std::size_t j = 0; j < cols; ++j)
            calib[s * cols + j] =
                static_cast<float>(rng.gaussian(0.0, (j % 32 == 0) ? 10.0 : 0.5));
    const quant::AwqResult awq =
        quant::awq_quantize(w, rows, cols, calib, samples, quant::AwqConfig{});
    out.push_back({"Sec. IV.A", "AWQ output MSE below plain W4 group-128",
                   fmt("%.1fx lower", awq.baseline_mse / awq.best_mse), "lower",
                   awq.best_mse < awq.baseline_mse});

    // Logit fidelity against the float model on synthetic tiny-512 weights.
    const model::ModelConfig cfg = model::ModelConfig::tiny_512();
    const model::ModelWeights fw = model::ModelWeights::synthetic(cfg, 2024);
    quant::GroupQuantConfig g8;
    g8.bits = 8;
    const auto w4 = model::QuantizedModelWeights::quantize(fw, quant::GroupQuantConfig{});
    const auto w8 = model::QuantizedModelWeights::quantize(fw, g8);
    model::ReferenceEngine golden(fw);
    const std::size_t gs = golden.reserve_slot();
    const double c_w8 = rollout_cosine(golden, gs, model::ReferenceEngine(w8));
    const double c_w4 = rollout_cosine(golden, gs, model::ReferenceEngine(w4));
    const auto kv = [&](unsigned bits) {
        return rollout_cosine(golden, gs,
                              model::ReferenceEngine(w4, {.use_kv8 = true, .kv_bits = bits}));
    };
    const double c_kv8 = kv(8), c_kv4 = kv(4), c_kv2 = kv(2);
    out.push_back({"Sec. IV.A", "logit cosine: W8 > W4 (float KV)",
                   fmt("%.4f > %.4f", c_w8, c_w4), "W8 > W4", c_w8 > c_w4});
    out.push_back({"Sec. IV.B", "logit cosine: KV8 > KV4 > KV2 (W4)",
                   fmt("%.3f>%.3f>%.3f", c_kv8, c_kv4, c_kv2), "KV8 > KV4 > KV2",
                   c_kv8 > c_kv4 && c_kv4 > c_kv2});
    out.push_back({"Sec. IV.B", "KV8 closer to float-KV W4 than KV4",
                   fmt("%.4f vs %.4f off", std::abs(c_kv8 - c_w4), std::abs(c_kv4 - c_w4)),
                   "closer", std::abs(c_kv8 - c_w4) < std::abs(c_kv4 - c_w4)});
}

// §VIII: decode is memory-bound everywhere; prefill crosses the ridge.
void roofline(std::vector<Claim>& out) {
    using analytic::DeviceRoofline;
    using analytic::Roofline;
    int memory_bound = 0;
    for (const DeviceRoofline& dev :
         {DeviceRoofline::kv260_accelerator(), DeviceRoofline::jetson_orin_nano(),
          DeviceRoofline::jetson_agx_orin()})
        memory_bound += Roofline::decode(dev, kLlama, kW4).memory_bound;
    out.push_back({"Sec. VIII", "decode memory-bound on KV260, Orin Nano, AGX",
                   fmt("on %d/3 devices", memory_bound), "on all", memory_bound == 3});
    // The first swept prompt length from which every longer one is compute-bound.
    const DeviceRoofline kv260 = DeviceRoofline::kv260_accelerator();
    std::size_t from = 0;
    for (const std::size_t n : {64u, 16u, 4u, 2u, 1u}) {
        if (Roofline::prefill(kv260, kLlama, kW4, n).memory_bound) break;
        from = n;
    }
    out.push_back({"Sec. VIII", "KV260 prefill compute-bound from prompt 2",
                   fmt("from prompt %zu", from), "from prompt 2", from == 2});
}

// §VI.B: the 128-lane vector engine gives up prefill speed (Fig. 2A) for
// area; a matrix engine would reuse streamed weights.
void prefill(std::vector<Claim>& out) {
    int compute_bound = 0, matrix_faster = 0;
    double lo = 1e30, hi = 0;
    DecodeCycleModel m(kLlama, kW4, AccelConfig{});
    for (const std::size_t n : {16u, 64u, 128u, 256u, 512u}) {
        const accel::PrefillTiming p = m.prefill_timing(n);
        compute_bound += p.compute_bound();
        matrix_faster += m.matrix_engine_prefill_ns(n, 4096.0) < p.total_ns;
        lo = std::min(lo, p.tokens_per_s());
        hi = std::max(hi, p.tokens_per_s());
    }
    out.push_back({"Sec. VI.B", "twin prefill compute-bound, prompt 16..512",
                   fmt("%d/5 at %.1f-%.1f tok/s", compute_bound, lo, hi), "at all",
                   compute_bound == 5});
    out.push_back({"Sec. VI.B", "4096-MAC matrix engine TTFT lower",
                   fmt("lower at %d/5", matrix_faster), "at all", matrix_faster == 5});
}

}  // namespace

int main() {
    std::vector<Claim> claims;
    const double rate = headline(claims);
    table1(claims);
    tables2_3(claims, rate);
    fig1(claims);
    fig3(claims);
    fig4(claims);
    ports(claims);
    burst(claims);
    kv_precision(claims);
    quantization(claims);
    roofline(claims);
    prefill(claims);

    std::printf("=== Paper fidelity: one row per claim (LLaMA2-7B W4A16-KV8 on the KV260 "
                "model) ===\n\n");
    std::printf("%-9s  %-46s  %-22s  %-20s  %s\n", "source", "claim", "measured",
                "paper / band", "status");
    std::printf("%s\n", std::string(112, '-').c_str());
    std::vector<const Claim*> failed;
    std::size_t gated = 0;
    for (const Claim& c : claims) {
        gated += c.gated ? 1 : 0;
        if (c.gated && !c.in_band) failed.push_back(&c);
        std::printf("%-9s  %-46s  %-22s  %-20s  %s\n", c.source.c_str(), c.what.c_str(),
                    c.measured.c_str(), c.paper.c_str(),
                    !c.gated ? "open" : c.in_band ? "ok" : "FAIL");
        if (!c.note.empty()) std::printf("%11s%s\n", "note: ", c.note.c_str());
    }
    std::printf("\n%zu/%zu gated rows in band, %zu known-open\n", gated - failed.size(),
                gated, claims.size() - gated);
    for (const Claim* c : failed)
        std::printf("out of band: %s %s: %s (paper %s)\n", c->source.c_str(),
                    c->what.c_str(), c->measured.c_str(), c->paper.c_str());
    return failed.empty() ? 0 : 1;
}
