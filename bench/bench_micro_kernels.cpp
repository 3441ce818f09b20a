// Micro-kernel benchmarks (google-benchmark): the simulator's own hot paths.
#include <benchmark/benchmark.h>

#include "accel/hw_exp.hpp"
#include "accel/spu_rope.hpp"
#include "accel/spu_softmax.hpp"
#include "accel/vpu.hpp"
#include "common/rng.hpp"
#include "kvpool/paged_kv_cache.hpp"
#include "memsim/memory_system.hpp"
#include "model/kernels.hpp"
#include "quant/groupquant.hpp"
#include "quant/kvquant.hpp"
#include "quant/weight_format.hpp"

using namespace efld;

namespace {

std::vector<Fp16> random_halfs(std::size_t n, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    std::vector<Fp16> v(n);
    for (auto& x : v) x = Fp16::from_float(static_cast<float>(rng.gaussian()));
    return v;
}

void BM_Fp16Conversion(benchmark::State& state) {
    Xoshiro256 rng(1);
    std::vector<float> xs(1024);
    for (auto& x : xs) x = static_cast<float>(rng.gaussian());
    for (auto _ : state) {
        for (const float x : xs) {
            benchmark::DoNotOptimize(float_to_half_bits(x));
        }
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_Fp16Conversion);

void BM_Dot128(benchmark::State& state) {
    const auto a = accel::to_float(random_halfs(128, 2));
    const auto b = accel::to_float(random_halfs(128, 3));
    for (auto _ : state) {
        benchmark::DoNotOptimize(accel::DotEngine::dot128(a, b));
    }
    state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_Dot128);

void BM_PackedGemv(benchmark::State& state) {
    const std::size_t rows = static_cast<std::size_t>(state.range(0));
    const std::size_t cols = 512;
    Xoshiro256 rng(4);
    std::vector<float> w(rows * cols);
    for (auto& x : w) x = static_cast<float>(rng.gaussian(0.0, 0.05));
    const auto q = quant::QuantizedLinear::quantize(w, rows, cols, {});
    const auto stream = quant::pack_weight_stream(q);
    const auto x = random_halfs(cols, 5);
    std::vector<Fp16> y(rows);
    accel::DotEngine vpu;
    for (auto _ : state) {
        vpu.gemv(stream, rows, cols, x, y);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * rows * cols);
}
BENCHMARK(BM_PackedGemv)->Arg(16)->Arg(64)->Arg(256);

// The host W4 kernel on bench-m's FFN shape (2048 x 768, group 128), one
// thread, at batch range(0): per-weight decode cost of the register tile.
void BM_HostW4Gemm(benchmark::State& state) {
    const std::size_t rows = 2048, cols = 768;
    const auto batch = static_cast<std::size_t>(state.range(0));
    Xoshiro256 rng(11);
    std::vector<float> w(rows * cols), x(batch * cols), y(batch * rows);
    for (auto& v : w) v = static_cast<float>(rng.gaussian(0.0, 0.05));
    for (auto& v : x) v = static_cast<float>(rng.gaussian());
    const auto q = quant::QuantizedLinear::quantize(w, rows, cols, {});
    for (auto _ : state) {
        q.gemm(x, batch, y);
        benchmark::DoNotOptimize(y.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(rows * cols));
}
BENCHMARK(BM_HostW4Gemm)->Arg(1)->Arg(8);

void BM_WeightPack(benchmark::State& state) {
    Xoshiro256 rng(6);
    std::vector<float> w(64 * 512);
    for (auto& x : w) x = static_cast<float>(rng.gaussian(0.0, 0.05));
    const auto q = quant::QuantizedLinear::quantize(w, 64, 512, {});
    for (auto _ : state) {
        benchmark::DoNotOptimize(quant::pack_weight_stream(q));
    }
    state.SetBytesProcessed(state.iterations() * 64 * 512 / 2);
}
BENCHMARK(BM_WeightPack);

void BM_KvQuantize(benchmark::State& state) {
    Xoshiro256 rng(7);
    std::vector<float> x(128);
    for (auto& v : x) v = static_cast<float>(rng.gaussian());
    for (auto _ : state) {
        benchmark::DoNotOptimize(quant::kv_quantize(x));
    }
    state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_KvQuantize);

// model::attention_paged over a bench-m KV8 arena (dim 768, 12 query heads
// on 4 KV heads, head_dim 64, 16-token pages) at context range(0): one KV
// head's 3 query heads for one row, each page dequantized into scratch as
// ReferenceEngine reads it. The host's KV8 history walk per context token.
void BM_Kv8PageWalk(benchmark::State& state) {
    model::ModelConfig c;
    c.name = "bench-m";
    c.dim = 768;
    c.n_layers = 8;
    c.n_heads = 12;
    c.n_kv_heads = 4;
    c.hidden_dim = 2048;
    c.vocab_size = 512;
    c.max_seq_len = 1024;
    const auto ctx = static_cast<std::size_t>(state.range(0));
    const std::size_t hd = c.head_dim(), pt = 16, heads = c.n_heads / c.n_kv_heads;
    kvpool::PagedQuantizedKvArena arena(c, kvpool::pool_config(c, 1, pt, 0));
    const std::size_t seq = arena.create_sequence();
    Xoshiro256 rng(12);
    std::vector<float> k(c.kv_dim()), v(c.kv_dim());
    for (std::size_t t = 0; t < ctx; ++t) {
        for (std::size_t l = 0; l < c.n_layers; ++l) {
            for (auto* x : {&k, &v}) {
                for (auto& e : *x) e = static_cast<float>(rng.gaussian());
            }
            arena.append(seq, l, k, v);
        }
    }
    std::vector<float> q(heads * hd), out(heads * hd), scores(heads * ctx), rows(pt * hd);
    for (auto& e : q) e = static_cast<float>(rng.gaussian());
    const model::PagedAttentionShape shape{
        .rows = 1, .heads = heads, .head_dim = hd, .row_stride = c.dim, .ctx = ctx,
        .page_tokens = pt};
    const auto pages = [&](kvpool::KvPart part) {
        return [&, part](std::size_t i) {
            const kvpool::KvPage page = arena.page(seq, 0, 0, part, i);
            for (std::size_t t = 0; t < page.rows(); ++t) {
                quant::kv_dequantize_into(page.row(t), page.params[t],
                                          std::span(rows).subspan(t * hd, hd));
            }
            return std::span<const float>(rows).first(page.rows() * hd);
        };
    };
    for (auto _ : state) {
        model::attention_paged(q, out, shape, pages(kvpool::KvPart::kKeys),
                               pages(kvpool::KvPart::kValues), scores);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(ctx));
}
BENCHMARK(BM_Kv8PageWalk)->Arg(64)->Arg(512);

void BM_HwExp(benchmark::State& state) {
    const accel::HwExp hw;
    const auto xs = random_halfs(256, 8);
    for (auto _ : state) {
        for (const Fp16 x : xs) benchmark::DoNotOptimize(hw.exp(x));
    }
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_HwExp);

void BM_SpuSoftmax(benchmark::State& state) {
    const accel::HwExp hw;
    const accel::SpuSoftmax sm(hw);
    const auto x = random_halfs(static_cast<std::size_t>(state.range(0)), 9);
    std::vector<Fp16> out(x.size());
    for (auto _ : state) {
        sm.run(x, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SpuSoftmax)->Arg(128)->Arg(1024);

void BM_SpuRope(benchmark::State& state) {
    const accel::SpuRope rope;
    auto v = random_halfs(128, 10);
    std::size_t pos = 0;
    for (auto _ : state) {
        rope.run(v, pos++ % 1024);
        benchmark::DoNotOptimize(v.data());
    }
    state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_SpuRope);

void BM_MemorySystemSequential(benchmark::State& state) {
    memsim::MemorySystem mem(memsim::MemorySystemConfig::kv260());
    const std::uint64_t bytes = static_cast<std::uint64_t>(state.range(0)) << 20;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mem.sequential_read_ns(0, bytes));
    }
    state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_MemorySystemSequential)->Arg(1)->Arg(16)->Arg(128);

}  // namespace

BENCHMARK_MAIN();
