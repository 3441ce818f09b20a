// Worker-pool semantics: full coverage of the index range, determinism
// across pool sizes, exception propagation, reuse across many jobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/threadpool.hpp"

namespace efld {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(hits.size(), [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroAndTinyRanges) {
    ThreadPool pool(4);
    int calls = 0;
    pool.parallel_for(0, [&](std::size_t, std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);

    std::vector<std::atomic<int>> hits(3);  // fewer items than workers
    pool.parallel_for(hits.size(), [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
    ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 1u);
    std::vector<int> order;
    pool.parallel_for(5, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) order.push_back(static_cast<int>(i));
    });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, DisjointChunksPartitionTheRange) {
    ThreadPool pool(3);
    std::mutex m;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    pool.parallel_for(97, [&](std::size_t b, std::size_t e) {
        std::lock_guard<std::mutex> lk(m);
        chunks.emplace_back(b, e);
    });
    std::sort(chunks.begin(), chunks.end());
    std::size_t expect_begin = 0;
    for (const auto& [b, e] : chunks) {
        EXPECT_EQ(b, expect_begin);
        EXPECT_LT(b, e);
        expect_begin = e;
    }
    EXPECT_EQ(expect_begin, 97u);
}

TEST(ThreadPool, ResultsIndependentOfPoolSize) {
    // The determinism contract: disjoint writes give identical results for
    // any pool size.
    std::vector<double> want(512);
    for (std::size_t i = 0; i < want.size(); ++i) {
        want[i] = static_cast<double>(i) * 1.25 - 3.0;
    }
    for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
        ThreadPool pool(threads);
        std::vector<double> got(want.size(), 0.0);
        pool.parallel_for(got.size(), [&](std::size_t b, std::size_t e) {
            for (std::size_t i = b; i < e; ++i) got[i] = static_cast<double>(i) * 1.25 - 3.0;
        });
        EXPECT_EQ(got, want) << threads << " threads";
    }
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallel_for(100,
                                   [&](std::size_t b, std::size_t) {
                                       if (b == 0) throw Error("boom");
                                   }),
                 Error);
    // The pool must stay usable after a failed job.
    std::atomic<int> n{0};
    pool.parallel_for(10, [&](std::size_t b, std::size_t e) {
        n.fetch_add(static_cast<int>(e - b));
    });
    EXPECT_EQ(n.load(), 10);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
    ThreadPool pool(4);
    std::atomic<long> total{0};
    for (int job = 0; job < 200; ++job) {
        pool.parallel_for(64, [&](std::size_t b, std::size_t e) {
            long local = 0;
            for (std::size_t i = b; i < e; ++i) local += static_cast<long>(i);
            total.fetch_add(local);
        });
    }
    EXPECT_EQ(total.load(), 200L * (63L * 64L / 2));
}

TEST(ThreadPool, ConcurrentCallersEachCoverTheirRangeOnce) {
    // Two threads share one pool (as two serve shards share the global pool
    // under ServeOptions::threads = 0). Each call must still run every index
    // of its own range exactly once: a second caller must not repoint the
    // job while the first one's chunks are in flight.
    ThreadPool pool(4);
    constexpr int kCalls = 20'000;
    const auto caller = [&](std::size_t salt, int& bad_calls) {
        std::vector<std::atomic<int>> hits(64);
        for (int call = 0; call < kCalls; ++call) {
            const std::size_t n = 16 + (call * 7 + salt) % 48;
            for (std::size_t i = 0; i < n; ++i) hits[i].store(0);
            pool.parallel_for(n, [&](std::size_t b, std::size_t e) {
                for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
            });
            for (std::size_t i = 0; i < n; ++i) {
                if (hits[i].load() != 1) {
                    ++bad_calls;
                    break;
                }
            }
        }
    };
    int bad_a = 0, bad_b = 0;
    std::thread other([&] { caller(3, bad_b); });
    caller(0, bad_a);
    other.join();
    EXPECT_EQ(bad_a, 0);
    EXPECT_EQ(bad_b, 0);
}

TEST(ThreadPool, WakesAfterWorkersPark) {
    // Workers spin for a short window after a job, then park. A job that
    // arrives after they parked must still wake them (or run on the caller)
    // and cover every index exactly once.
    ThreadPool pool(4);
    for (int job = 0; job < 5; ++job) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        std::vector<std::atomic<int>> hits(257);
        pool.parallel_for(hits.size(), [&](std::size_t b, std::size_t e) {
            for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
        });
        for (const auto& h : hits) ASSERT_EQ(h.load(), 1) << "job " << job;
    }
}

TEST(ThreadPool, ExceptionOnWorkerChunkPropagates) {
    // Only chunks in the upper half throw. The caller claims chunks from the
    // front as soon as the job is published, so the throwing chunks usually
    // run on workers; the exception must still reach the caller.
    ThreadPool pool(4);
    constexpr std::size_t n = 1000;
    for (int round = 0; round < 20; ++round) {
        std::atomic<std::size_t> covered{0};
        EXPECT_THROW(pool.parallel_for(n,
                                       [&](std::size_t b, std::size_t e) {
                                           covered.fetch_add(e - b);
                                           if (b >= n / 2) throw Error("worker boom");
                                       }),
                     Error);
        // Every chunk still ran before parallel_for returned.
        EXPECT_EQ(covered.load(), n);
    }
    std::atomic<int> total{0};
    pool.parallel_for(10, [&](std::size_t b, std::size_t e) {
        total.fetch_add(static_cast<int>(e - b));
    });
    EXPECT_EQ(total.load(), 10);
}

TEST(ThreadPool, WiderThanMachinePoolCoversEveryIndexOnce) {
    // A pool wider than the machine parks its idle workers instead of
    // spinning; coverage and reuse must be unchanged.
    const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
    ThreadPool pool(2 * hw);
    EXPECT_EQ(pool.size(), 2 * hw);
    for (int job = 0; job < 50; ++job) {
        std::vector<std::atomic<int>> hits(64 + static_cast<std::size_t>(job) * 13);
        pool.parallel_for(hits.size(), [&](std::size_t b, std::size_t e) {
            for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
        });
        for (const auto& h : hits) ASSERT_EQ(h.load(), 1) << "job " << job;
    }
}

TEST(ThreadPool, GenerationTagWrapsAcrossManyTinyJobs) {
    // The claim word's generation tag is 16 bits wide; 150k back-to-back
    // tiny jobs wrap it twice. Each job must still cover its range once.
    ThreadPool pool(4);
    constexpr int kJobs = 150'000;
    std::vector<std::atomic<int>> hits(8);
    long bad_jobs = 0;
    for (int job = 0; job < kJobs; ++job) {
        const std::size_t n = 2 + static_cast<std::size_t>(job) % 7;
        for (std::size_t i = 0; i < n; ++i) hits[i].store(0, std::memory_order_relaxed);
        pool.parallel_for(n, [&](std::size_t b, std::size_t e) {
            for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < n; ++i) {
            if (hits[i].load(std::memory_order_relaxed) != 1) {
                ++bad_jobs;
                break;
            }
        }
    }
    EXPECT_EQ(bad_jobs, 0);
}

TEST(ThreadPool, GlobalPoolResizable) {
    ThreadPool::set_global_threads(3);
    EXPECT_EQ(ThreadPool::global().size(), 3u);
    std::atomic<int> n{0};
    ThreadPool::global().parallel_for(17, [&](std::size_t b, std::size_t e) {
        n.fetch_add(static_cast<int>(e - b));
    });
    EXPECT_EQ(n.load(), 17);
    ThreadPool::set_global_threads(1);
    EXPECT_EQ(ThreadPool::global().size(), 1u);
}

}  // namespace
}  // namespace efld
