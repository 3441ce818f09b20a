// Skinny-GEMM fast path vs. the reference oracle: one weight walk serving a
// batch of activation vectors must be bit-for-bit identical to independent
// GEMV calls — the accumulation contract extends per (row, batch column).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
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

TEST(GemmFused, ReferenceIsExactlyIndependentGemvs) {
    const QuantizedLinear q = make_layer(24, 256, 4, 128, 11);
    const std::size_t batch = 5;
    const auto x = random_floats(batch * 256, 12, 1.0);
    std::vector<float> want(batch * 24);
    for (std::size_t b = 0; b < batch; ++b) {
        q.gemv_reference(std::span<const float>(x).subspan(b * 256, 256),
                         std::span<float>(want).subspan(b * 24, 24));
    }
    std::vector<float> got(batch * 24, -1.0f);
    q.gemm_reference(x, batch, got);
    EXPECT_EQ(got, want);
}

TEST(GemmFused, ScalarMatchesReferenceBitForBit) {
    // Sweep bits x group size x shape x batch (crossing the register-tile
    // boundary at kGemmBatchTile).
    std::uint64_t seed = 1;
    for (const unsigned bits : {2u, 4u, 8u}) {
        for (const std::size_t gs : {32u, 128u}) {
            for (const auto& [rows, cols] :
                 std::vector<std::pair<std::size_t, std::size_t>>{{3, 128}, {40, 256}}) {
                if (cols % gs != 0) continue;
                const QuantizedLinear q = make_layer(rows, cols, bits, gs, seed++);
                for (const std::size_t batch : {1u, 2u, 4u, 8u, 9u, 17u}) {
                    const auto x = random_floats(batch * cols, seed++, 1.0);
                    std::vector<float> want(batch * rows);
                    q.gemm_reference(x, batch, want);
                    std::vector<float> got(batch * rows, -1.0f);
                    q.gemm(x, batch, got);
                    EXPECT_EQ(got, want) << "bits=" << bits << " gs=" << gs << " "
                                         << rows << "x" << cols << " batch=" << batch;
                }
            }
        }
    }
}

TEST(GemmFused, Batch1IsIdenticalToGemv) {
    for (const unsigned bits : {4u, 8u}) {
        const QuantizedLinear q = make_layer(48, 384, bits, 128, 100 + bits);
        const auto x = random_floats(384, 200 + bits, 1.0);
        std::vector<float> via_gemv(48, -1.0f), via_gemm(48, -2.0f);
        q.gemv(x, via_gemv);
        q.gemm(x, 1, via_gemm);
        EXPECT_EQ(via_gemm, via_gemv) << "bits=" << bits;
    }
}

TEST(GemmFused, ThreadedMatchesScalarBitForBit) {
    const QuantizedLinear q = make_layer(96, 512, 4, 128, 77);
    for (const std::size_t batch : {1u, 3u, 8u}) {
        const auto x = random_floats(batch * 512, 78 + batch, 1.0);
        std::vector<float> scalar(batch * 96);
        q.gemm(x, batch, scalar);
        for (const std::size_t threads : {2u, 4u, 8u}) {
            ThreadPool pool(threads);
            std::vector<float> threaded(batch * 96, -1.0f);
            q.gemm(x, batch, threaded, &pool);
            EXPECT_EQ(threaded, scalar) << threads << " threads, batch " << batch;
        }
    }
}

TEST(GemmFused, EveryTileShapeMatchesReference) {
    // Batch 1..17 reaches every column-tile width (1..kGemmBatchTile) and
    // the wrap into a second tile; the row counts leave every row-block
    // remainder; pools of 3 and 4 split rows at block-unaligned points. The
    // 240-column shapes have group sizes that are not a multiple of
    // kGemvLanes, so every group ends in the tile's lane-by-lane tail (a
    // 4-weight group is all tail).
    struct Shape {
        std::size_t cols, gs, pools;  // pools: how many of {none, 3, 4}
    };
    const std::vector<Shape> shapes = {{256, 32, 3}, {256, 128, 3}, {240, 4, 2},
                                       {240, 12, 2}, {240, 20, 2},  {240, 60, 2}};
    std::vector<std::unique_ptr<ThreadPool>> pools;
    pools.push_back(nullptr);
    pools.push_back(std::make_unique<ThreadPool>(3));
    pools.push_back(std::make_unique<ThreadPool>(4));
    std::uint64_t seed = 300;
    for (const unsigned bits : {2u, 4u, 8u}) {
        for (const Shape& shape : shapes) {
            const std::size_t cols = shape.cols;
            for (const std::size_t rows : {1u, 2u, 3u, 5u, 33u}) {
                const QuantizedLinear q = make_layer(rows, cols, bits, shape.gs, seed++);
                for (std::size_t batch = 1; batch <= 17; ++batch) {
                    const auto x = random_floats(batch * cols, seed++, 1.0);
                    std::vector<float> want(batch * rows);
                    q.gemm_reference(x, batch, want);
                    for (std::size_t p = 0; p < shape.pools; ++p) {
                        ThreadPool* pool = pools[p].get();
                        std::vector<float> got(batch * rows, -1.0f);
                        q.gemm(x, batch, got, pool);
                        EXPECT_EQ(got, want)
                            << "bits=" << bits << " cols=" << cols << " gs=" << shape.gs
                            << " rows=" << rows << " batch=" << batch
                            << " pool=" << (pool ? pool->size() : 0);
                    }
                }
            }
        }
    }
}

// A 4-bit layer whose groups take their fp16 scales from `patterns` in a
// scrambled cycle (a multi-group row mixes several), with random codes and
// zero points.
QuantizedLinear layer_with_scales(std::size_t rows, std::size_t cols, std::size_t gs,
                                  const std::vector<std::uint16_t>& patterns,
                                  std::uint64_t seed) {
    GroupQuantConfig cfg;
    cfg.bits = 4;
    cfg.group_size = gs;
    efld::Xoshiro256 rng(seed);
    std::vector<std::uint8_t> codes(rows * cols);
    for (auto& c : codes) c = static_cast<std::uint8_t>(rng.next() % 16);
    const std::size_t groups = rows * (cols / gs);
    std::vector<Fp16> scales(groups);
    std::vector<std::uint8_t> zeros(groups);
    for (std::size_t g = 0; g < groups; ++g) {
        scales[g] = Fp16::from_bits(patterns[(g * 7 + g / 3) % patterns.size()]);
        zeros[g] = static_cast<std::uint8_t>(rng.next() % 16);
    }
    return QuantizedLinear::from_parts(std::move(codes), std::move(scales), std::move(zeros),
                                       rows, cols, cfg);
}

// Activations with exact zeros sprinkled in, so some group dots are 0 and an
// infinite scale meets 0 * inf.
std::vector<float> activations_with_zeros(std::size_t n, std::uint64_t seed) {
    std::vector<float> x = random_floats(n, seed, 1.0);
    for (std::size_t i = 0; i < n; i += 5) x[i] = (i % 2 == 0) ? 0.0f : -0.0f;
    return x;
}

// Every fast path (gemm at several batches and with a pool, and gemv)
// against gemm_reference, through `same`.
template <class Same>
void check_every_path(const QuantizedLinear& q, std::uint64_t seed, Same same) {
    const std::size_t rows = q.rows(), cols = q.cols();
    ThreadPool pool(3);
    for (const std::size_t batch : {1u, 2u, 5u, 8u, 11u}) {
        const auto x = activations_with_zeros(batch * cols, seed + batch);
        std::vector<float> want(batch * rows);
        q.gemm_reference(x, batch, want);
        for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
            std::vector<float> got(batch * rows);
            q.gemm(x, batch, got, p);
            same(got, want, "gemm batch " + std::to_string(batch));
        }
        if (batch != 1) continue;
        std::vector<float> got(rows);
        q.gemv(x, got);
        same(got, want, "gemv");
    }
}

TEST(GemmFused, EveryScalePatternMatchesReference) {
    // +-0, subnormals (smallest, largest, negative), the largest normal and
    // lowest value, +-inf, and ordinary scales in between.
    const std::vector<std::uint16_t> patterns = {0x0000, 0x8000, 0x0001, 0x03FF, 0x8200,
                                                 0x7BFF, 0xFBFF, 0x7C00, 0xFC00, 0x3C00,
                                                 0x2E66, 0xB400};
    std::size_t nonfinite = 0, zeros = 0;
    const auto same = [&](const std::vector<float>& got, const std::vector<float>& want,
                          const std::string& where) {
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            nonfinite += std::isfinite(want[i]) ? 0 : 1;
            zeros += want[i] == 0.0f ? 1 : 0;
            EXPECT_EQ(std::bit_cast<std::uint32_t>(got[i]), std::bit_cast<std::uint32_t>(want[i]))
                << where << " output " << i << ": " << got[i] << " vs " << want[i];
        }
    };
    // Several patterns per row, and one group per row (where a single +-0 or
    // +-inf scale decides the output, signed zeros included).
    check_every_path(layer_with_scales(9, 256, 32, patterns, 61), 62, same);
    check_every_path(layer_with_scales(24, 32, 32, patterns, 63), 64, same);
    EXPECT_GT(nonfinite, 0u) << "the infinite scales never reached an output";
    EXPECT_GT(zeros, 0u) << "the zero scales never reached an output";
}

TEST(GemmFused, NanScalesStayNan) {
    // Quiet and signalling NaN scales among ordinary ones: NaN-ness must
    // reach the same outputs; every other output stays bit-identical.
    const std::vector<std::uint16_t> patterns = {0x3C00, 0x7E00, 0x2E66, 0xB400,
                                                 0xFD01, 0x0001, 0x3555};
    const QuantizedLinear q = layer_with_scales(7, 256, 32, patterns, 71);
    std::size_t nans = 0;
    check_every_path(q, 72, [&](const std::vector<float>& got, const std::vector<float>& want,
                                const std::string& where) {
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            if (std::isnan(want[i])) {
                ++nans;
                EXPECT_TRUE(std::isnan(got[i])) << where << " output " << i;
            } else {
                EXPECT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                          std::bit_cast<std::uint32_t>(want[i]))
                    << where << " output " << i;
            }
        }
    });
    EXPECT_GT(nans, 0u);
}

TEST(GemmFused, RejectsBadShapes) {
    const QuantizedLinear q = make_layer(4, 128, 4, 64, 41);
    std::vector<float> x(2 * 128), y(2 * 4);
    EXPECT_THROW(q.gemm(x, 0, std::span<float>()), efld::Error);
    EXPECT_THROW(q.gemm(std::span<const float>(x).first(255), 2, y), efld::Error);
    EXPECT_THROW(q.gemm(x, 2, std::span<float>(y).first(7)), efld::Error);
}

}  // namespace
}  // namespace efld::quant
