// Bus-width aligned model-weight arrangement format (Fig. 4A).
//
// Everything the accelerator fetches must arrive as large sequential bursts.
// Scales and zero points are therefore interleaved *into* the weight stream
// rather than stored in side tables:
//
//   weight word = 128 x u4 codes  = exactly one quantization group
//   scale  word = 32 x fp16       = scales for the next 32 groups
//   zero   word = 128 x u4        = zero points for the next 128 groups
//
//   per 128-group chunk: [Z] [S0] [W x32] [S1] [W x32] [S2] [W x32] [S3] [W x32]
//   = 133 words for 16384 weights  (3.76 % stream overhead)
//
// The paper's §V.B text is internally inconsistent (64 weights per word vs.
// 128 dequantized lanes); we adopt the self-consistent 128-lane reading —
// see DESIGN.md §4. A partial final chunk still emits one zero word, then as
// many scale blocks as needed; the tail scale block may carry fewer than 32
// weight words.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bitpack.hpp"
#include "quant/groupquant.hpp"

namespace efld::quant {

inline constexpr std::size_t kFormatGroupSize = kNibblesPerWord;       // 128
inline constexpr std::size_t kGroupsPerScaleWord = kHalfsPerWord;      // 32
inline constexpr std::size_t kGroupsPerZeroWord = kNibblesPerWord;     // 128
inline constexpr std::size_t kScaleBlocksPerChunk =
    kGroupsPerZeroWord / kGroupsPerScaleWord;                          // 4

enum class WordKind : std::uint8_t { kZero, kScale, kWeight };

// Deterministic stream schedule for `num_groups` groups — the demultiplexer
// in the MCU walks exactly this sequence.
[[nodiscard]] std::vector<WordKind> stream_schedule(std::size_t num_groups);

// Number of bus words the arrangement needs for `num_groups` groups.
[[nodiscard]] std::size_t stream_words(std::size_t num_groups);

// Fraction of the stream that is scale/zero overhead (vs. weight payload).
[[nodiscard]] double stream_overhead(std::size_t num_groups);

// Packs a quantized layer (group_size must be 128, bits must be 4).
[[nodiscard]] std::vector<Word512> pack_weight_stream(const QuantizedLinear& layer);

// Decodes a packed stream back into a layer (inverse of pack_weight_stream).
[[nodiscard]] QuantizedLinear unpack_weight_stream(std::span<const Word512> words,
                                                   std::size_t rows, std::size_t cols);

// One dequantization-ready group as it leaves the demultiplexer.
struct DecodedGroup {
    Word512 codes{};  // the weight word itself: code n is codes.nibble(n)
    Fp16 scale;
    std::uint8_t zero = 0;
};

// Streaming decoder: feed bus words in arrival order; weight words pop out as
// decoded groups with their scale/zero attached. Models the MCU demux +
// scale/zero registers (only one zero word and one scale word are ever
// buffered on chip — the point of the format).
class WeightStreamDecoder {
public:
    explicit WeightStreamDecoder(std::size_t num_groups);

    // Consumes the next word; returns a group when the word was weight data.
    std::optional<DecodedGroup> consume(const Word512& word);

    [[nodiscard]] bool done() const noexcept { return groups_done_ == num_groups_; }
    [[nodiscard]] std::size_t groups_done() const noexcept { return groups_done_; }
    // The stream_schedule() entry at the cursor, derived from the cursor.
    [[nodiscard]] WordKind expected_kind() const;

private:
    std::size_t num_groups_;
    std::size_t groups_done_ = 0;
    std::size_t cursor_ = 0;  // words consumed
    Word512 zero_word_{};
    Word512 scale_word_{};
};

}  // namespace efld::quant
