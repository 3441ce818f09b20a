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
// are bit-for-bit identical for every pool size and schedule.
#pragma once

#include <condition_variable>
#include <cstddef>
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
    void worker_loop();
    // Claims chunks of the current job until none remain; returns how many
    // chunks this thread executed.
    std::size_t run_chunks(const std::function<void(std::size_t, std::size_t)>* body);

    [[nodiscard]] std::size_t chunk_begin(std::size_t c) const noexcept {
        return c * job_n_ / job_chunks_;
    }

    std::size_t n_threads_ = 1;
    std::vector<std::thread> workers_;

    // Held by a caller for its whole job, so a second caller cannot repoint
    // the job state below while the first job's chunks are still running.
    std::mutex caller_m_;
    std::mutex m_;
    std::condition_variable work_cv_;   // wakes workers on a new generation
    std::condition_variable done_cv_;   // wakes the caller on completion/idle
    std::uint64_t generation_ = 0;
    bool stop_ = false;

    // State of the in-flight job (valid for the current generation only).
    const std::function<void(std::size_t, std::size_t)>* job_body_ = nullptr;
    std::size_t job_n_ = 0;
    std::size_t job_chunks_ = 0;
    std::size_t next_chunk_ = 0;        // guarded by m_
    std::size_t chunks_done_ = 0;       // guarded by m_
    std::size_t active_workers_ = 0;    // workers currently running chunks
    std::exception_ptr first_error_;
};

}  // namespace efld
