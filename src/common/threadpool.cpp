#include "common/threadpool.hpp"

#include <algorithm>
#include <memory>

namespace efld {

ThreadPool::ThreadPool(std::size_t threads) {
    if (threads == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        threads = hw > 0 ? hw : 1;
    }
    n_threads_ = threads;
    workers_.reserve(n_threads_ - 1);
    for (std::size_t i = 0; i + 1 < n_threads_; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard<std::mutex> lk(m_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
}

std::size_t ThreadPool::run_chunks(
    const std::function<void(std::size_t, std::size_t)>* body) {
    std::size_t executed = 0;
    for (;;) {
        std::size_t c;
        {
            std::lock_guard<std::mutex> lk(m_);
            if (next_chunk_ >= job_chunks_) break;
            c = next_chunk_++;
        }
        try {
            (*body)(chunk_begin(c), chunk_begin(c + 1));
        } catch (...) {
            std::lock_guard<std::mutex> lk(m_);
            if (!first_error_) first_error_ = std::current_exception();
        }
        ++executed;
    }
    return executed;
}

void ThreadPool::worker_loop() {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(m_);
    for (;;) {
        work_cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        ++active_workers_;
        const auto* body = job_body_;
        lk.unlock();
        const std::size_t done = run_chunks(body);
        lk.lock();
        chunks_done_ += done;
        --active_workers_;
        if (chunks_done_ == job_chunks_ && active_workers_ == 0) done_cv_.notify_all();
    }
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body) {
    if (n == 0) return;
    if (n_threads_ == 1 || n == 1) {
        body(0, n);
        return;
    }
    const std::lock_guard<std::mutex> caller(caller_m_);
    {
        std::unique_lock<std::mutex> lk(m_);
        // A worker that never woke for a previous (already exhausted) job may
        // still wake late and walk its chunk loop; let it drain before the
        // chunk counters are repointed at the new body.
        done_cv_.wait(lk, [&] { return active_workers_ == 0; });
        job_body_ = &body;
        job_n_ = n;
        // A few chunks per thread balances uneven rows without shrinking the
        // per-chunk work below the claim overhead.
        job_chunks_ = std::min(n, n_threads_ * 4);
        next_chunk_ = 0;
        chunks_done_ = 0;
        first_error_ = nullptr;
        ++generation_;
    }
    work_cv_.notify_all();

    const std::size_t mine = run_chunks(&body);

    std::unique_lock<std::mutex> lk(m_);
    chunks_done_ += mine;
    done_cv_.wait(lk, [&] { return chunks_done_ == job_chunks_ && active_workers_ == 0; });
    if (first_error_) {
        std::exception_ptr e = first_error_;
        first_error_ = nullptr;
        lk.unlock();
        std::rethrow_exception(e);
    }
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
