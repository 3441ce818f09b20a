// Persistent worker pool for the host-side decode fast path.
//
// Decoding is a sequence of row-parallel GEMVs and head-parallel attention
// ops, each far too short to amortize thread creation — so the pool keeps its
// workers alive across calls and hands them contiguous index ranges through
// `parallel_for`. The caller thread participates in the work, so a pool of
// size N uses N-1 spawned threads and `parallel_for(n, f)` on a size-1 pool
// degenerates to an inline call with zero synchronization.
//
// Determinism contract: `parallel_for` covers [0, n) as disjoint [begin, end)
// chunks, each executed exactly once. As long as the body writes only to
// locations indexed by its own range (the GEMV/attention pattern), results
// are bit-for-bit identical for every pool size and schedule. Chunk c always
// covers [c * n / chunks, (c + 1) * n / chunks) with chunks = min(n, 4 * size).
//
// Hand-over protocol. A decode step is ~65 back-to-back jobs a few tens of
// microseconds each, so a job is handed over through atomics, not a mutex:
//
//   - Claims. One 64-bit word holds the job's generation tag, its chunk count
//     and the next unclaimed chunk. Every thread (the caller included) claims
//     a chunk with a compare-exchange that succeeds only while the word still
//     carries the tag it expects and chunks remain, so a worker that wakes
//     late for a finished job can neither claim a chunk of the next one nor
//     bump its counter. The body pointer and n are read only after a
//     successful claim, and a job cannot finish while a claimed chunk is
//     still running, so the caller never rewrites them under a worker. The
//     tag is 16 bits wide and wraps; a claim whose compare-exchange matches a
//     wrapped tag is still a valid claim of the live job, because the word it
//     matched is the live job's.
//   - Completion. Each finished chunk adds 1 to an atomic done count; after
//     its own chunks the caller spins on that count (pause, then yield once
//     the spin window has passed) until every chunk is done.
//   - Spin, then park. An idle worker spins (`pause`) for kSpinWindow — about
//     the gap between two ops of a step — watching the word for a new tag,
//     then parks on a condition variable. The caller publishes a job and
//     takes the park mutex to notify only when some worker is parked (a
//     seq_cst store/load pair on the word and the parked count makes the two
//     sides agree).
//   - Oversubscription. A pool wider than the machine — the CPUs its
//     constructing thread may run on (the affinity mask on Linux, else
//     std::thread::hardware_concurrency()) — never spins: its workers park at
//     once, and a waiting caller yields, so a thread spinning on a shared
//     core cannot starve the thread it waits for.
//   - Callers. Callers on different threads may share a pool (two serve
//     shards on ThreadPool::global()): a caller mutex, held for the whole
//     job, makes their jobs take turns.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace efld {

class ThreadPool {
public:
    // `threads` = total parallelism (including the calling thread);
    // 0 = hardware concurrency.
    explicit ThreadPool(std::size_t threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    [[nodiscard]] std::size_t size() const noexcept { return n_threads_; }

    // Runs `body(begin, end)` over a disjoint chunking of [0, n) and blocks
    // until every chunk finished. Callers on different threads may share a
    // pool: their jobs run one after another. Re-entrant calls from inside a
    // body are not supported (they deadlock). The first exception thrown by a
    // body is rethrown here after all chunks complete.
    void parallel_for(std::size_t n,
                      const std::function<void(std::size_t, std::size_t)>& body);

    // Process-wide pool shared by callers that don't own one (session/bench
    // wiring). Defaults to hardware concurrency on first use.
    static ThreadPool& global();
    // Replaces the global pool (joins the old workers). Not safe while another
    // thread is inside global().parallel_for.
    static void set_global_threads(std::size_t threads);

private:
    using Body = std::function<void(std::size_t, std::size_t)>;

    void worker_loop();
    // Claims chunks of the job tagged `tag` until none remain.
    void run_chunks(std::uint64_t tag);

    std::size_t n_threads_ = 1;
    bool spin_ = true;  // false when the pool is wider than the machine
    std::vector<std::thread> workers_;

    // Held by a caller for its whole job, so a second caller cannot repoint
    // the job state below while the first job's chunks are still running.
    std::mutex caller_m_;

    // [tag:16 | chunks:24 | next:24] of the live job (see the header comment).
    std::atomic<std::uint64_t> claim_{0};
    std::atomic<std::size_t> done_{0};  // chunks of the live job finished
    std::uint64_t tag_ = 0;             // the live job's tag; caller-owned

    // Written by the caller before it publishes the claim word; read by a
    // thread only after it claimed a chunk of that job.
    const Body* job_body_ = nullptr;
    std::size_t job_n_ = 0;

    std::mutex park_m_;
    std::condition_variable park_cv_;
    std::atomic<std::size_t> parked_{0};
    std::atomic<bool> stop_{false};

    std::mutex error_m_;
    std::exception_ptr first_error_;  // guarded by error_m_
};

}  // namespace efld
