// The engine seam: one slot-based decode interface that every backend —
// the host reference engine, the cycle-accurate accelerator twin, and any
// future SIMD/paged-KV/real-hardware engine — implements, so the serving
// layer and the single-stream runtime drive all of them through the same
// calls.
//
// The contract is deliberately minimal and batched-by-construction:
//
//   - A backend owns `max_batch()` session slots, each an independent KV
//     history + position. Slots are *reserved* before use and *released*
//     (which clears their KV state) when the request retires; reservation is
//     how the serving layer and the backend agree on who owns which cache.
//   - `decode_batch(tokens, slots, rows, logits_out)` advances a token span
//     through each reserved slot in ONE engine step: rows[i] consecutive
//     tokens belong to slots[i], and the slot's position advances by rows[i].
//     Only the LAST row of each span writes logits (row i of logits_out), so
//     a prompt tile costs one logits row. Decode is weight-bound, so a
//     backend is expected to pay its weight traffic once per step (or once
//     per register tile of rows) regardless of lane count — that
//     amortization is the entire point of the seam (see
//     StepCost::weight_walks).
//   - `max_feed_tokens()` is the longest span one slot may take in one step:
//     1 (the default) means one token per slot per step; the host engine
//     takes prompt tiles of up to 16 rows. The serving layer sizes each
//     step's feed from it.
//   - Results must be deterministic and independent of batching and tiling:
//     a span's last-row logits are bit-for-bit what a solo run feeding the
//     same token stream one token per step through the same backend would
//     produce.
//
// After each decode_batch, `last_step_cost()` reports what the step cost:
// host wall time, simulated device time (for backends with a cycle model;
// zero otherwise), and how many streaming passes over the quantized weights
// the step performed. The serving layer aggregates these into its
// tokens/s — wall for the host backend, simulated-KV260 for the accelerator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "model/config.hpp"

namespace efld::obs {
class Profiler;
}  // namespace efld::obs

namespace efld::engine {

// What one decode_batch step cost, in the three currencies this repo cares
// about. weight_walks is fractional by design: a backend that streams only
// part of the weights in a step (e.g. a future layer-pipelined engine) may
// report < 1, and one that re-reads them per register tile of rows (the host
// skinny GEMM) reports one walk per tile.
struct StepCost {
    double wall_ns = 0.0;       // host wall-clock inside decode_batch
    double simulated_ns = 0.0;  // modeled device time; 0 when not modeled
    double weight_walks = 0.0;  // streaming passes over the quantized weights
    // Step-phase breakdown of simulated_ns, for backends whose cycle model
    // prices phases separately (the accel twin's TokenTiming). The paper's
    // roofline lives here: mem_bound is DDR-stream time (weights + KV),
    // compute is exposed VPU time not hidden under the streams, overhead is
    // the per-step fixed cost. Backends without a phase model leave zeros;
    // the three phases sum to simulated_ns when modeled.
    double sim_mem_bound_ns = 0.0;
    double sim_compute_ns = 0.0;
    double sim_overhead_ns = 0.0;
};

// Page-store state a prefix-sharing backend exposes (zeros when it has no
// prefix store, i.e. kv_page_tokens 0): pages_shared is the pages its prefix store currently pins
// resident; cow_copies counts private copies made when a session diverged
// into a shared page. Adoptions are counted once, by the caller of
// adopt_prefix (serve::ServeStats::prefix_hits / prefix_hit_tokens).
struct PrefixSharingStats {
    std::size_t pages_shared = 0;
    std::size_t cow_copies = 0;
};

class DecodeBackend {
public:
    // Sentinel returned by reserve_slot when every slot is taken.
    static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

    virtual ~DecodeBackend() = default;

    [[nodiscard]] virtual const model::ModelConfig& config() const noexcept = 0;
    [[nodiscard]] virtual std::size_t max_batch() const noexcept = 0;
    [[nodiscard]] virtual std::string_view name() const noexcept = 0;

    // Claims a free session slot (fresh KV, position 0); kNoSlot when full.
    [[nodiscard]] virtual std::size_t reserve_slot() = 0;
    // Returns the slot, clearing its KV history and position.
    virtual void release_slot(std::size_t slot) = 0;
    // Tokens already decoded into the slot's KV history.
    [[nodiscard]] virtual std::size_t position(std::size_t slot) const = 0;

    // Advances a token span through each slot in one step: rows[i]
    // consecutive tokens of `tokens` belong to slots[i] (rows must sum to
    // tokens.size(); an empty `rows` means one token per slot). Slots must
    // be distinct, reserved, and below max_batch(); every span holds 1 ..
    // max_feed_tokens() tokens and fits the context window. The last row of
    // span i writes logits row i (vocab floats, span-major) into
    // logits_out, which must hold at least slots.size() * vocab floats.
    // A step the KV page pool cannot hold throws efld::Error before any slot
    // changes.
    virtual void decode_batch(std::span<const std::int32_t> tokens,
                              std::span<const std::size_t> slots,
                              std::span<const std::size_t> rows,
                              std::span<float> logits_out) = 0;
    // One token per slot: tokens[i] through slots[i], logits row i.
    void decode_batch(std::span<const std::int32_t> tokens,
                      std::span<const std::size_t> slots,
                      std::span<float> logits_out) {
        decode_batch(tokens, slots, {}, logits_out);
    }

    // The most tokens one slot may take in one decode_batch step.
    [[nodiscard]] virtual std::size_t max_feed_tokens() const noexcept { return 1; }

    // Clears every slot's KV history and position. Reservations survive: this
    // is a state reset (new conversation), not a lifecycle operation.
    virtual void reset() = 0;

    // Cost report for the most recent decode_batch call.
    [[nodiscard]] virtual StepCost last_step_cost() const noexcept = 0;

    // Hands the backend a phase profiler (owned by the serving layer;
    // outlives the backend's use of it, nullptr detaches). Backends that
    // opt in scope their internal phases — attention, for now — so the
    // profiler can split a decode step's cost. Default: ignore it.
    virtual void set_profiler(obs::Profiler* /*profiler*/) {}

    // ---- prefix sharing (optional; default: no sharing) ----
    //
    // A paged backend keeps a prefix::PrefixStore of full prompt pages it has
    // already computed KV for (both backends share that store's code, so
    // they answer every call below identically for the same prompt and
    // pool). The serving layer probes before admission
    // (capacity math), adopts after reserving a slot (skipping prefill for
    // covered tokens), and registers a prompt's pages once its prefill
    // completes. Tokens covered by adoption are NEVER fed through
    // decode_batch — the slot's position starts past them — and reading
    // adopted pages is bit-for-bit what re-prefilling would store, so
    // generated tokens stay identical to a no-sharing run.

    // Tokens of `prompt` an adoption would cover right now, capped at
    // `max_cover` (full covered pages, plus up to a partial last page).
    // Pure lookup; no state changes.
    [[nodiscard]] virtual std::size_t probe_prefix(
        std::span<const std::int32_t> /*prompt*/,
        std::size_t /*max_cover*/) const {
        return 0;
    }

    // Maps the longest indexed prefix of `prompt` into the freshly reserved
    // `slot` (position advances past the covered tokens). Returns the tokens
    // covered, <= max_cover; 0 when nothing matched or the backend is not
    // paged.
    virtual std::size_t adopt_prefix(std::size_t /*slot*/,
                                     std::span<const std::int32_t> /*prompt*/,
                                     std::size_t /*max_cover*/) {
        return 0;
    }

    // Indexes the full pages of `prompt` now resident in `slot` (its prefill
    // just completed), pinning at most `max_new_pages` additional pages.
    // Returns how many pages the index newly pinned.
    virtual std::size_t register_prefix(std::size_t /*slot*/,
                                        std::span<const std::int32_t> /*prompt*/,
                                        std::size_t /*max_new_pages*/) {
        return 0;
    }

    // Drops the whole prefix index, releasing its page pins. Returns pages
    // released — the serving layer's escape hatch when pinned prefixes starve
    // an otherwise-admissible request.
    virtual std::size_t drop_prefix_cache() { return 0; }

    [[nodiscard]] virtual PrefixSharingStats prefix_stats() const { return {}; }
};

// Shared reserve/release bookkeeping for backends: which of the max_batch
// slots are handed out. Backends pair release() with their own session reset.
class SlotLedger {
public:
    SlotLedger() = default;
    explicit SlotLedger(std::size_t n_slots) : used_(n_slots, 0) {}

    // First free slot (marked used), or DecodeBackend::kNoSlot when full.
    [[nodiscard]] std::size_t acquire() noexcept {
        for (std::size_t s = 0; s < used_.size(); ++s) {
            if (used_[s] == 0) {
                used_[s] = 1;
                return s;
            }
        }
        return DecodeBackend::kNoSlot;
    }
    // False when `slot` is out of range or was not reserved.
    [[nodiscard]] bool release(std::size_t slot) noexcept {
        if (slot >= used_.size() || used_[slot] == 0) return false;
        used_[slot] = 0;
        return true;
    }

private:
    std::vector<std::uint8_t> used_;
};

}  // namespace efld::engine
