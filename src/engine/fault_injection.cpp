#include "engine/fault_injection.hpp"

#include <charconv>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace efld::engine {

namespace {

// One clause, split on ':'. "stall:2:50" -> {"stall", "2", "50"}.
std::vector<std::string_view> split(std::string_view s, char sep) {
    std::vector<std::string_view> parts;
    while (true) {
        const std::size_t at = s.find(sep);
        parts.push_back(s.substr(0, at));
        if (at == std::string_view::npos) break;
        s.remove_prefix(at + 1);
    }
    return parts;
}

std::uint64_t parse_u64(std::string_view s, const char* what) {
    std::uint64_t v = 0;
    const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec != std::errc() || ptr != s.data() + s.size()) {
        throw std::invalid_argument("fault spec: bad " + std::string(what) +
                                    " '" + std::string(s) + "'");
    }
    return v;
}

void check_nonzero(std::size_t v, std::string_view clause) {
    if (v == 0) {
        throw std::invalid_argument("fault spec: index in '" + std::string(clause) +
                                    "' must be >= 1 (steps are 1-based)");
    }
}

double parse_prob(std::string_view s) {
    // from_chars<double> is spotty across libstdc++ versions; stod is fine
    // for a config-string parser.
    std::size_t used = 0;
    double p = 0.0;
    try {
        p = std::stod(std::string(s), &used);
    } catch (const std::exception&) {
        used = 0;
    }
    if (used != s.size() || !(p > 0.0) || p > 1.0) {
        throw std::invalid_argument("fault spec: flaky probability '" +
                                    std::string(s) + "' not in (0, 1]");
    }
    return p;
}

}  // namespace

FaultPlan parse_fault_plan(std::string_view spec) {
    FaultPlan plan;
    // An all-whitespace spec is "no injection", like the empty string —
    // this parser sits at the end of config plumbing. Whitespace INSIDE a
    // non-empty spec is still an error: a typo should fail loudly.
    while (!spec.empty() && (spec.front() == ' ' || spec.front() == '\t')) {
        spec.remove_prefix(1);
    }
    while (!spec.empty() && (spec.back() == ' ' || spec.back() == '\t')) {
        spec.remove_suffix(1);
    }
    if (spec.empty()) return plan;
    for (std::string_view clause : split(spec, ',')) {
        const std::vector<std::string_view> f = split(clause, ':');
        if (f[0] == "step" && f.size() == 2) {
            plan.throw_at_step = parse_u64(f[1], "step index");
            check_nonzero(plan.throw_at_step, clause);
        } else if (f[0] == "alloc" && f.size() == 2) {
            plan.throw_at_reservation = parse_u64(f[1], "reservation index");
            check_nonzero(plan.throw_at_reservation, clause);
        } else if (f[0] == "stall" && f.size() == 3) {
            plan.stall_at_step = parse_u64(f[1], "stall step");
            check_nonzero(plan.stall_at_step, clause);
            plan.stall = std::chrono::milliseconds(parse_u64(f[2], "stall ms"));
        } else if (f[0] == "flaky" && f.size() == 3) {
            plan.flaky_p = parse_prob(f[1]);
            plan.flaky_seed = parse_u64(f[2], "flaky seed");
        } else {
            throw std::invalid_argument(
                "fault spec: unknown clause '" + std::string(clause) +
                "' (step:K | alloc:K | stall:K:MS | flaky:P:SEED)");
        }
    }
    return plan;
}

FaultInjectingBackend::FaultInjectingBackend(std::unique_ptr<DecodeBackend> inner,
                                             FaultPlan plan)
    : inner_(std::move(inner)), plan_(plan), rng_(plan.flaky_seed) {
    if (inner_ == nullptr) {
        throw std::invalid_argument("FaultInjectingBackend: null inner backend");
    }
}

void FaultInjectingBackend::die(const std::string& what) {
    dead_ = true;
    throw BackendFault("injected fault: " + what + " (backend '" +
                       std::string(inner_->name()) + "')");
}

std::size_t FaultInjectingBackend::reserve_slot() {
    if (dead_) die("device already dead");
    ++reservations_;
    if (plan_.throw_at_reservation != 0 &&
        reservations_ >= plan_.throw_at_reservation) {
        die("slot allocation failed at reservation " +
            std::to_string(reservations_));
    }
    return inner_->reserve_slot();
}

void FaultInjectingBackend::release_slot(std::size_t slot) {
    // Releasing state on a dead device is a no-op, not a second fault: the
    // serving layer abandons the device wholesale and must be able to tear
    // its bookkeeping down without tripping over the corpse.
    if (dead_) return;
    inner_->release_slot(slot);
}

void FaultInjectingBackend::decode_batch(std::span<const std::int32_t> tokens,
                                         std::span<const std::size_t> slots,
                                         std::span<const std::size_t> rows,
                                         std::span<float> logits_out) {
    if (dead_) die("device already dead");
    ++steps_;
    if (plan_.stall_at_step != 0 && steps_ == plan_.stall_at_step &&
        plan_.stall.count() > 0) {
        std::this_thread::sleep_for(plan_.stall);
    }
    if (plan_.throw_at_step != 0 && steps_ >= plan_.throw_at_step) {
        die("decode step " + std::to_string(steps_));
    }
    if (plan_.flaky_p > 0.0 && rng_.uniform() < plan_.flaky_p) {
        die("flaky decode step " + std::to_string(steps_));
    }
    inner_->decode_batch(tokens, slots, rows, logits_out);
}

}  // namespace efld::engine
