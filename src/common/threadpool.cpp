#include "common/threadpool.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif
#if defined(__linux__)
#include <sched.h>
#endif

namespace efld {

namespace {

// How long an idle worker, or a caller waiting for the last chunks, spins
// before it parks (or yields): about the gap between two ops of a decode step.
constexpr std::chrono::microseconds kSpinWindow{200};
// Spins between two clock reads.
constexpr int kSpinsPerClockRead = 64;

constexpr int kNextBits = 24;
constexpr int kChunkBits = 24;
constexpr std::uint64_t kFieldMask = (std::uint64_t{1} << kNextBits) - 1;
constexpr std::uint64_t kTagMask = (std::uint64_t{1} << 16) - 1;

constexpr std::uint64_t tag_of(std::uint64_t w) noexcept {
    return w >> (kNextBits + kChunkBits);
}
constexpr std::uint64_t chunks_of(std::uint64_t w) noexcept {
    return (w >> kNextBits) & kFieldMask;
}
constexpr std::uint64_t next_of(std::uint64_t w) noexcept { return w & kFieldMask; }

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

// Spins (pause) until `ready()` holds or kSpinWindow passes; true if it held.
template <class Ready>
bool spin_until(Ready ready) {
    const auto deadline = std::chrono::steady_clock::now() + kSpinWindow;
    for (;;) {
        for (int i = 0; i < kSpinsPerClockRead; ++i) {
            if (ready()) return true;
            cpu_relax();
        }
        if (std::chrono::steady_clock::now() >= deadline) return ready();
    }
}

// CPUs the constructing thread may run on: its affinity mask where the
// platform has one (taskset and cpusets narrow it, hardware_concurrency()
// does not see that), else hardware_concurrency(); 0 if unknown.
std::size_t usable_cpus() {
#if defined(__linux__)
    cpu_set_t set{};
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        return static_cast<std::size_t>(CPU_COUNT(&set));
    }
#endif
    return std::thread::hardware_concurrency();
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
    if (threads == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        threads = hw > 0 ? hw : 1;
    }
    n_threads_ = threads;
    const std::size_t cpus = usable_cpus();
    spin_ = cpus > 0 && n_threads_ <= cpus;
    workers_.reserve(n_threads_ - 1);
    for (std::size_t i = 0; i + 1 < n_threads_; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

ThreadPool::~ThreadPool() {
    stop_.store(true);
    {
        std::lock_guard<std::mutex> lk(park_m_);
    }
    park_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
}

void ThreadPool::run_chunks(std::uint64_t tag) {
    for (;;) {
        std::uint64_t w = claim_.load(std::memory_order_acquire);
        do {
            if (tag_of(w) != tag || next_of(w) >= chunks_of(w)) return;
        } while (!claim_.compare_exchange_weak(w, w + 1, std::memory_order_acq_rel,
                                               std::memory_order_acquire));
        const std::size_t c = next_of(w);
        const std::size_t chunks = chunks_of(w);
        try {
            (*job_body_)(c * job_n_ / chunks, (c + 1) * job_n_ / chunks);
        } catch (...) {
            std::lock_guard<std::mutex> lk(error_m_);
            if (!first_error_) first_error_ = std::current_exception();
        }
        done_.fetch_add(1, std::memory_order_release);
    }
}

void ThreadPool::worker_loop() {
    std::uint64_t seen = 0;
    const auto fresh = [&] {
        return stop_.load(std::memory_order_relaxed) ||
               tag_of(claim_.load(std::memory_order_relaxed)) != seen;
    };
    for (;;) {
        if (!(spin_ && spin_until(fresh))) {
            std::unique_lock<std::mutex> lk(park_m_);
            parked_.fetch_add(1);
            park_cv_.wait(lk, [&] { return stop_.load() || tag_of(claim_.load()) != seen; });
            parked_.fetch_sub(1);
        }
        if (stop_.load()) return;
        seen = tag_of(claim_.load(std::memory_order_acquire));
        run_chunks(seen);
    }
}

void ThreadPool::parallel_for(std::size_t n, const Body& body) {
    if (n == 0) return;
    if (n_threads_ == 1 || n == 1) {
        body(0, n);
        return;
    }
    const std::lock_guard<std::mutex> caller(caller_m_);
    // A few chunks per thread balances uneven rows without shrinking the
    // per-chunk work below the claim overhead.
    const std::uint64_t chunks = std::min<std::uint64_t>({n, n_threads_ * 4, kFieldMask});
    job_body_ = &body;
    job_n_ = n;
    done_.store(0, std::memory_order_relaxed);
    tag_ = (tag_ + 1) & kTagMask;
    // seq_cst store, then seq_cst load of parked_: a worker that counted
    // itself parked before this store sees the new tag in its wait predicate
    // or is woken here.
    claim_.store((tag_ << (kNextBits + kChunkBits)) | (chunks << kNextBits));
    if (parked_.load() > 0) {
        { std::lock_guard<std::mutex> lk(park_m_); }
        park_cv_.notify_all();
    }

    run_chunks(tag_);

    const auto all_done = [&] { return done_.load(std::memory_order_acquire) == chunks; };
    if (!(spin_ && spin_until(all_done))) {
        while (!all_done()) std::this_thread::yield();
    }
    // Every chunk's done_ increment happened after its error write, so the
    // acquire loads above order first_error_ before this read.
    if (first_error_) std::rethrow_exception(std::exchange(first_error_, nullptr));
}

namespace {
std::mutex g_global_pool_mu;
std::unique_ptr<ThreadPool> g_global_pool;
}  // namespace

ThreadPool& ThreadPool::global() {
    std::lock_guard<std::mutex> lk(g_global_pool_mu);
    if (!g_global_pool) g_global_pool = std::make_unique<ThreadPool>();
    return *g_global_pool;
}

void ThreadPool::set_global_threads(std::size_t threads) {
    std::lock_guard<std::mutex> lk(g_global_pool_mu);
    g_global_pool = std::make_unique<ThreadPool>(threads);
}

}  // namespace efld
