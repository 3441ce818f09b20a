// Online KV quantization submodule (Fig. 5C6): two passes over the input.
//
// Pass 1 tracks min/max to derive the scale and zero point; pass 2 emits
// 8-bit codes. Runs concurrently with key/value generation in the fused
// pipeline (§V.A), so the quantization of the current token's K and V is
// free. The resulting scale-zero pack goes to the Fig. 4B FIFO, and the
// codes go through the serial-to-parallel unit back to DDR.
#pragma once

#include <span>
#include <vector>

#include "accel/spu_rope.hpp"  // SpuCycles
#include "quant/kvquant.hpp"

namespace efld::accel {

class SpuQuant {
public:
    // The {codes, params} entry the paged KV arena stores, plus cost.
    struct Result : quant::KvQuantized {
        SpuCycles cycles;
    };

    [[nodiscard]] Result run(std::span<const Fp16> x) const;
};

}  // namespace efld::accel
