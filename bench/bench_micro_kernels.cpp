// Micro-kernel benchmarks (google-benchmark): the simulator's own hot paths.
#include <benchmark/benchmark.h>

#include "accel/hw_exp.hpp"
#include "accel/spu_rope.hpp"
#include "accel/spu_softmax.hpp"
#include "accel/vpu.hpp"
#include "common/rng.hpp"
#include "memsim/memory_system.hpp"
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
