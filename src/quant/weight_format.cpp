#include "quant/weight_format.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace efld::quant {

std::vector<WordKind> stream_schedule(std::size_t num_groups) {
    std::vector<WordKind> sched;
    sched.reserve(stream_words(num_groups));
    std::size_t g = 0;
    while (g < num_groups) {
        sched.push_back(WordKind::kZero);  // zeros for up to 128 groups
        const std::size_t chunk_groups = std::min(num_groups - g, kGroupsPerZeroWord);
        std::size_t done = 0;
        while (done < chunk_groups) {
            sched.push_back(WordKind::kScale);  // scales for up to 32 groups
            const std::size_t block = std::min(chunk_groups - done, kGroupsPerScaleWord);
            sched.insert(sched.end(), block, WordKind::kWeight);
            done += block;
        }
        g += chunk_groups;
    }
    return sched;
}

std::size_t stream_words(std::size_t num_groups) {
    const std::size_t zero_words = div_ceil(num_groups, kGroupsPerZeroWord);
    const std::size_t scale_words = div_ceil(num_groups, kGroupsPerScaleWord);
    return zero_words + scale_words + num_groups;
}

double stream_overhead(std::size_t num_groups) {
    if (num_groups == 0) return 0.0;
    const double total = static_cast<double>(stream_words(num_groups));
    return (total - static_cast<double>(num_groups)) / total;
}

std::vector<Word512> pack_weight_stream(const QuantizedLinear& layer) {
    check(layer.config().group_size == kFormatGroupSize,
          "pack_weight_stream: bus format requires group_size == 128");
    check(layer.config().bits == 4, "pack_weight_stream: bus format requires 4-bit codes");

    const std::size_t num_groups = layer.num_groups();
    std::vector<Word512> words;
    words.reserve(stream_words(num_groups));

    std::size_t g = 0;
    while (g < num_groups) {
        const std::size_t chunk_groups = std::min(num_groups - g, kGroupsPerZeroWord);

        Word512 zero_word{};
        for (std::size_t i = 0; i < chunk_groups; ++i) {
            zero_word.set_nibble(i, layer.zero(g + i));
        }
        words.push_back(zero_word);

        std::size_t done = 0;
        while (done < chunk_groups) {
            const std::size_t block = std::min(chunk_groups - done, kGroupsPerScaleWord);
            Word512 scale_word{};
            for (std::size_t i = 0; i < block; ++i) {
                scale_word.set_half(i, layer.scale(g + done + i));
            }
            words.push_back(scale_word);

            for (std::size_t i = 0; i < block; ++i) {
                const std::size_t group = g + done + i;
                Word512 w{};
                const auto codes = layer.codes().subspan(group * kFormatGroupSize,
                                                         kFormatGroupSize);
                for (std::size_t n = 0; n < kFormatGroupSize; ++n) {
                    w.set_nibble(n, codes[n]);
                }
                words.push_back(w);
            }
            done += block;
        }
        g += chunk_groups;
    }
    return words;
}

QuantizedLinear unpack_weight_stream(std::span<const Word512> words, std::size_t rows,
                                     std::size_t cols) {
    check(cols % kFormatGroupSize == 0, "unpack_weight_stream: cols not group aligned");
    const std::size_t num_groups = rows * (cols / kFormatGroupSize);
    check(words.size() == stream_words(num_groups),
          "unpack_weight_stream: word count mismatch");

    std::vector<std::uint8_t> codes(rows * cols);
    std::vector<Fp16> scales(num_groups);
    std::vector<std::uint8_t> zeros(num_groups);

    WeightStreamDecoder dec(num_groups);
    std::size_t g = 0;
    for (const auto& w : words) {
        if (auto grp = dec.consume(w)) {
            for (std::size_t n = 0; n < kFormatGroupSize; ++n) {
                codes[g * kFormatGroupSize + n] = grp->codes.nibble(n);
            }
            scales[g] = grp->scale;
            zeros[g] = grp->zero;
            ++g;
        }
    }
    check(g == num_groups, "unpack_weight_stream: stream ended early");

    GroupQuantConfig cfg;
    cfg.group_size = kFormatGroupSize;
    cfg.bits = 4;
    return QuantizedLinear::from_parts(std::move(codes), std::move(scales),
                                       std::move(zeros), rows, cols, cfg);
}

WeightStreamDecoder::WeightStreamDecoder(std::size_t num_groups)
    : num_groups_(num_groups) {}

WordKind WeightStreamDecoder::expected_kind() const {
    check(groups_done_ < num_groups_, "WeightStreamDecoder: stream already complete");
    // The next group's weight word follows its chunk's zero word and its
    // block's scale word; the cursor lags that position by the words still
    // missing in front of it.
    const std::size_t g = groups_done_;
    const std::size_t weight_pos =
        g + (g / kGroupsPerZeroWord + 1) + (g / kGroupsPerScaleWord + 1);
    switch (weight_pos - cursor_) {
        case 0: return WordKind::kWeight;
        case 1: return WordKind::kScale;
        default: return WordKind::kZero;
    }
}

std::optional<DecodedGroup> WeightStreamDecoder::consume(const Word512& word) {
    const WordKind kind = expected_kind();
    ++cursor_;
    switch (kind) {
        case WordKind::kZero:
            zero_word_ = word;
            return std::nullopt;
        case WordKind::kScale:
            scale_word_ = word;
            return std::nullopt;
        case WordKind::kWeight: {
            DecodedGroup grp;
            // Group offsets within the current chunk / scale block derive from
            // how many groups this chunk has already produced.
            const std::size_t chunk_off = groups_done_ % kGroupsPerZeroWord;
            const std::size_t block_off = chunk_off % kGroupsPerScaleWord;
            grp.codes = word;
            grp.scale = scale_word_.half(block_off);
            grp.zero = zero_word_.nibble(chunk_off);
            ++groups_done_;
            return grp;
        }
    }
    return std::nullopt;
}

}  // namespace efld::quant
