// Monotonic time seam for the observability layer.
//
// Every latency the serving stack measures (queue wait, TTFT, inter-token
// gap, end-to-end) and every trace timestamp flows through one Clock, so
// tests inject a ManualClock and assert exact durations instead of sleeping
// and hoping. Production uses the process-wide SteadyClock (steady_clock
// nanoseconds — monotonic, never steps with wall time).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace efld::obs {

class Clock {
public:
    virtual ~Clock() = default;
    // Monotonic nanoseconds. Only differences are meaningful; the epoch is
    // implementation-defined (steady_clock's for SteadyClock, 0 for a fresh
    // ManualClock).
    [[nodiscard]] virtual std::uint64_t now_ns() const noexcept = 0;
};

class SteadyClock final : public Clock {
public:
    [[nodiscard]] std::uint64_t now_ns() const noexcept override {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    }
};

// Deterministic test clock: time moves only when the test says so. Safe to
// advance from one thread while instrumented code reads it from others.
class ManualClock final : public Clock {
public:
    explicit ManualClock(std::uint64_t start_ns = 0) : now_(start_ns) {}

    [[nodiscard]] std::uint64_t now_ns() const noexcept override {
        return now_.load(std::memory_order_acquire);
    }
    void advance_ns(std::uint64_t delta) noexcept {
        now_.fetch_add(delta, std::memory_order_acq_rel);
    }
    void set_ns(std::uint64_t t) noexcept {
        now_.store(t, std::memory_order_release);
    }

private:
    std::atomic<std::uint64_t> now_;
};

// The process-wide default timebase (what instrumented code uses when no
// clock was injected).
[[nodiscard]] inline const Clock& steady_clock() noexcept {
    static const SteadyClock clock;
    return clock;
}

// A clock reading as a steady_clock instant: the form serve deadlines take.
// On the default clock it is steady_clock::now().
[[nodiscard]] inline std::chrono::steady_clock::time_point time_point(
    const Clock& clock) noexcept {
    return std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::nanoseconds(clock.now_ns())));
}

}  // namespace efld::obs
