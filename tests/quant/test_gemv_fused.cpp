// Fused GEMV fast path vs. the reference oracle: the accumulation contract
// says every variant (scalar, thread-pool, packed-4bit) performs identical
// float operations, so parity here is bit-for-bit, not approximate.
#include <gtest/gtest.h>

#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "quant/groupquant.hpp"

namespace efld::quant {
namespace {

std::vector<float> random_floats(std::size_t n, std::uint64_t seed, double scale = 0.05) {
    efld::Xoshiro256 rng(seed);
    std::vector<float> w(n);
    for (auto& v : w) v = static_cast<float>(rng.gaussian(0.0, scale));
    return w;
}

QuantizedLinear make_layer(std::size_t rows, std::size_t cols, unsigned bits,
                           std::size_t group_size, std::uint64_t seed) {
    GroupQuantConfig cfg;
    cfg.bits = bits;
    cfg.group_size = group_size;
    return QuantizedLinear::quantize(random_floats(rows * cols, seed), rows, cols, cfg);
}

TEST(GemvFused, ScalarMatchesReferenceBitForBit) {
    // Sweep bits x group size x (non-square) shape.
    std::uint64_t seed = 1;
    for (const unsigned bits : {2u, 4u, 8u}) {
        for (const std::size_t gs : {32u, 64u, 128u}) {
            for (const auto& [rows, cols] :
                 std::vector<std::pair<std::size_t, std::size_t>>{
                     {3, 128}, {40, 256}, {7, 384}, {128, 640}}) {
                if (cols % gs != 0) continue;
                const QuantizedLinear q = make_layer(rows, cols, bits, gs, seed++);
                const auto x = random_floats(cols, seed++, 1.0);
                const std::vector<float> want = q.gemv_reference(x);
                std::vector<float> got(rows, -1.0f);
                q.gemv(x, got);
                EXPECT_EQ(got, want)
                    << "bits=" << bits << " gs=" << gs << " " << rows << "x" << cols;
            }
        }
    }
}

TEST(GemvFused, ThreadedMatchesScalarBitForBit) {
    const QuantizedLinear q = make_layer(96, 512, 4, 128, 77);
    const auto x = random_floats(512, 78, 1.0);
    std::vector<float> scalar(96);
    q.gemv(x, scalar);
    for (const std::size_t threads : {2u, 3u, 4u, 8u}) {
        ThreadPool pool(threads);
        std::vector<float> threaded(96, -1.0f);
        q.gemv(x, threaded, &pool);
        EXPECT_EQ(threaded, scalar) << threads << " threads";
    }
}

TEST(GemvFused, ThreadCountNeverChangesResults) {
    // Property sweep: random shapes/bits, every pool size gives the exact
    // reference output.
    efld::Xoshiro256 rng(99);
    for (int trial = 0; trial < 12; ++trial) {
        const std::size_t gs = std::vector<std::size_t>{32, 64, 128}[trial % 3];
        const std::size_t rows = 1 + rng.next() % 50;
        const std::size_t cols = gs * (1 + rng.next() % 4);
        const unsigned bits = std::vector<unsigned>{2, 4, 8}[trial % 3];
        const QuantizedLinear q =
            make_layer(rows, cols, bits, gs, 1000 + static_cast<std::uint64_t>(trial));
        const auto x = random_floats(cols, 2000 + static_cast<std::uint64_t>(trial), 1.0);
        const std::vector<float> want = q.gemv_reference(x);
        for (const std::size_t threads : {1u, 2u, 5u}) {
            ThreadPool pool(threads);
            std::vector<float> got(rows, -1.0f);
            q.gemv(x, got, &pool);
            EXPECT_EQ(got, want) << "trial " << trial << ", " << threads << " threads";
        }
    }
}

TEST(GemvFused, ReferenceStillMatchesDequantizedGemv) {
    // The rewritten oracle must still agree (to float tolerance) with a GEMV
    // over fully materialized weights — it changed accumulation structure,
    // not semantics.
    const std::size_t rows = 6, cols = 256;
    const QuantizedLinear q = make_layer(rows, cols, 4, 128, 4);
    const auto x = random_floats(cols, 5, 1.0);
    const auto y = q.gemv_reference(x);
    const auto wq = q.dequantize();
    for (std::size_t r = 0; r < rows; ++r) {
        float acc = 0;
        for (std::size_t c = 0; c < cols; ++c) acc += wq[r * cols + c] * x[c];
        EXPECT_NEAR(y[r], acc, 1e-4f) << "row " << r;
    }
}

TEST(GemvFused, SpanReferenceOverloadMatchesVectorForm) {
    const QuantizedLinear q = make_layer(10, 256, 4, 64, 21);
    const auto x = random_floats(256, 22, 1.0);
    std::vector<float> y(10, -1.0f);
    q.gemv_reference(x, y);
    EXPECT_EQ(y, q.gemv_reference(x));
}

TEST(GemvFused, RejectsBadShapes) {
    const QuantizedLinear q = make_layer(4, 128, 4, 64, 41);
    std::vector<float> x(127), y(4);
    EXPECT_THROW(q.gemv(x, y), efld::Error);
    std::vector<float> x2(128), y2(3);
    EXPECT_THROW(q.gemv(x2, y2), efld::Error);
}

}  // namespace
}  // namespace efld::quant
