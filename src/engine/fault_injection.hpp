// Deterministic fault injection over the DecodeBackend seam.
//
// The deployment class this repo targets — fleets of small embedded FPGA
// boards — makes individual-device faults the expected case, not the
// exception. The serving layer's failover machinery (shard health states,
// request resubmission, governor commitment release) is only trustworthy if
// it can be exercised on demand, so this decorator wraps any DecodeBackend
// with a *scripted* fault schedule: tests and benches spawn a shard that is
// guaranteed to die at decode step K, refuse its Nth slot reservation, or
// stall for a configured duration — reproducibly, run after run.
//
// Fault spec strings (comma-separated clauses, parsed by parse_fault_plan):
//
//   step:K        — the Kth decode_batch call (1-based) throws BackendFault
//                   BEFORE touching the inner backend (the device died;
//                   no token was produced for that step).
//   alloc:K       — the Kth reserve_slot call throws BackendFault (slot
//                   allocation failed on-device; distinct from a graceful
//                   kNoSlot "full" answer).
//   stall:K:MS    — decode step K completes only after an extra MS
//                   milliseconds (a hung DMA / thermal-throttled board; the
//                   step itself still succeeds).
//   flaky:P:SEED  — every decode step independently throws with probability
//                   P, drawn from a SEEDed xoshiro stream. Deterministic:
//                   the same seed fails at the same steps every run.
//
// "step:3,stall:2:50" stalls step 2 by 50 ms and kills the backend at step 3.
// The empty spec is a no-op plan (the decorator becomes a transparent
// pass-through, useful for wiring tests).
//
// Failure is sticky: once a scripted fault has thrown, every subsequent
// decode_batch/reserve_slot throws too — a dead device does not come back on
// retry; recovery is the cluster's restart_shard path building a fresh
// backend.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "engine/decode_backend.hpp"

namespace efld::engine {

// What a dead backend throws. Derived from efld::Error so generic handlers
// keep working; the serving layer treats ANY exception escaping the backend
// seam as a device fault, but tests assert on this type to prove the fault
// they scripted is the fault they saw.
class BackendFault : public Error {
public:
    explicit BackendFault(const std::string& what) : Error(what) {}
};

// The scripted schedule. Step/reservation indices are 1-based; 0 disables a
// clause. Members mirror the spec grammar above.
struct FaultPlan {
    std::size_t throw_at_step = 0;       // step:K
    std::size_t throw_at_reservation = 0;  // alloc:K
    std::size_t stall_at_step = 0;       // stall:K:MS (step index)
    std::chrono::milliseconds stall{0};  // stall:K:MS (duration)
    double flaky_p = 0.0;                // flaky:P:SEED (per-step probability)
    std::uint64_t flaky_seed = 0;        // flaky:P:SEED (stream seed)

    [[nodiscard]] bool empty() const noexcept {
        return throw_at_step == 0 && throw_at_reservation == 0 &&
               stall_at_step == 0 && flaky_p <= 0.0;
    }
};

// Parses the spec grammar documented above. Throws std::invalid_argument on
// malformed clauses (unknown keyword, K == 0, P outside (0, 1]) so a typo in
// a bench flag fails loudly instead of silently injecting nothing.
[[nodiscard]] FaultPlan parse_fault_plan(std::string_view spec);

// The decorator: owns the inner backend, forwards everything, and applies the
// plan. Single-threaded like every DecodeBackend (one serve driver per
// backend); the fault counters are plain members.
class FaultInjectingBackend final : public DecodeBackend {
public:
    FaultInjectingBackend(std::unique_ptr<DecodeBackend> inner, FaultPlan plan);

    [[nodiscard]] const model::ModelConfig& config() const noexcept override {
        return inner_->config();
    }
    [[nodiscard]] std::size_t max_batch() const noexcept override {
        return inner_->max_batch();
    }
    [[nodiscard]] std::string_view name() const noexcept override {
        return "fault-injecting";
    }
    [[nodiscard]] std::string_view inner_name() const noexcept {
        return inner_->name();
    }

    [[nodiscard]] std::size_t reserve_slot() override;
    void release_slot(std::size_t slot) override;
    [[nodiscard]] std::size_t position(std::size_t slot) const override {
        return inner_->position(slot);
    }

    using DecodeBackend::decode_batch;
    void decode_batch(std::span<const std::int32_t> tokens,
                      std::span<const std::size_t> slots,
                      std::span<const std::size_t> rows,
                      std::span<float> logits_out) override;
    [[nodiscard]] std::size_t max_feed_tokens() const noexcept override {
        return inner_->max_feed_tokens();
    }

    void reset() override { inner_->reset(); }

    [[nodiscard]] StepCost last_step_cost() const noexcept override {
        return inner_->last_step_cost();
    }

    void set_profiler(obs::Profiler* profiler) override {
        inner_->set_profiler(profiler);
    }

    // Prefix sharing passes straight through: faults script the decode and
    // reservation paths; the index lives (and dies) with the inner backend.
    [[nodiscard]] std::size_t probe_prefix(std::span<const std::int32_t> prompt,
                                           std::size_t max_cover) const override {
        return inner_->probe_prefix(prompt, max_cover);
    }
    std::size_t adopt_prefix(std::size_t slot, std::span<const std::int32_t> prompt,
                             std::size_t max_cover) override {
        return inner_->adopt_prefix(slot, prompt, max_cover);
    }
    std::size_t register_prefix(std::size_t slot,
                                std::span<const std::int32_t> prompt,
                                std::size_t max_new_pages) override {
        return inner_->register_prefix(slot, prompt, max_new_pages);
    }
    std::size_t drop_prefix_cache() override { return inner_->drop_prefix_cache(); }
    [[nodiscard]] PrefixSharingStats prefix_stats() const override {
        return inner_->prefix_stats();
    }

    // Observability for tests/benches: steps attempted (including the fatal
    // one) and whether a scripted fault has fired.
    [[nodiscard]] std::size_t steps_attempted() const noexcept { return steps_; }
    [[nodiscard]] bool faulted() const noexcept { return dead_; }

private:
    [[noreturn]] void die(const std::string& what);

    std::unique_ptr<DecodeBackend> inner_;
    FaultPlan plan_;
    Xoshiro256 rng_;
    std::size_t steps_ = 0;         // decode_batch calls attempted
    std::size_t reservations_ = 0;  // reserve_slot calls attempted
    bool dead_ = false;             // sticky: a dead device stays dead
};

}  // namespace efld::engine
