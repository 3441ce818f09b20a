// RequestQueue edge cases: bounded rejection, FIFO ordering (including under
// concurrent submitters), and scheduler-driven admission order.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "serve/request_queue.hpp"
#include "serve/scheduler.hpp"

namespace efld::serve {
namespace {

PendingRequest req(std::uint64_t id, std::size_t prompt_len = 1,
                   std::size_t max_new = 1) {
    PendingRequest r;
    r.id = id;
    r.prompt.assign(prompt_len, 0);
    r.max_new_tokens = max_new;
    return r;
}

TEST(RequestQueue, PopOnEmptyIsNullopt) {
    RequestQueue q(4);
    EXPECT_FALSE(q.try_pop().has_value());
    EXPECT_FALSE(q.pop_with(FcfsScheduler{}).has_value());
    EXPECT_TRUE(q.empty());
}

TEST(RequestQueue, FullQueueRejectsWithoutLosingTheRequest) {
    RequestQueue q(2);
    EXPECT_TRUE(q.push(req(1)));
    EXPECT_TRUE(q.push(req(2)));

    PendingRequest third = req(3, 5, 7);
    EXPECT_FALSE(q.push(std::move(third)));
    // Rejection leaves the request intact — the caller can retry or reroute.
    EXPECT_EQ(third.id, 3u);
    EXPECT_EQ(third.prompt.size(), 5u);
    EXPECT_EQ(third.max_new_tokens, 7u);

    // Draining one slot makes room again.
    ASSERT_TRUE(q.try_pop().has_value());
    EXPECT_TRUE(q.push(std::move(third)));
    EXPECT_EQ(q.size(), 2u);
}

TEST(RequestQueue, FifoOrderSingleThread) {
    RequestQueue q(8);
    for (std::uint64_t id = 1; id <= 5; ++id) EXPECT_TRUE(q.push(req(id)));
    for (std::uint64_t id = 1; id <= 5; ++id) {
        const std::optional<PendingRequest> p = q.try_pop();
        ASSERT_TRUE(p.has_value());
        EXPECT_EQ(p->id, id);
    }
}

TEST(RequestQueue, ConcurrentSubmittersKeepPerThreadFifoOrder) {
    // N submitter threads interleave arbitrarily, but each thread's own
    // requests must drain in its submission order, every accepted request
    // must drain exactly once, and accepted + rejected must account for all.
    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kPerThread = 64;
    RequestQueue q(kThreads * kPerThread / 2);  // deliberately undersized

    std::atomic<std::size_t> rejected{0};
    std::atomic<bool> done_submitting{false};
    std::vector<std::thread> submitters;
    for (std::size_t t = 0; t < kThreads; ++t) {
        submitters.emplace_back([&, t] {
            for (std::size_t i = 0; i < kPerThread; ++i) {
                // id encodes (thread, sequence) so the drain can check order.
                const std::uint64_t id = t * 1000 + i;
                if (!q.push(req(id))) {
                    rejected.fetch_add(1, std::memory_order_relaxed);
                }
            }
        });
    }

    // Concurrent drain while submitters run (the serve loop's pop pattern).
    std::vector<std::uint64_t> drained;
    std::thread drainer([&] {
        while (true) {
            std::optional<PendingRequest> p = q.try_pop();
            if (p.has_value()) {
                drained.push_back(p->id);
            } else if (done_submitting.load(std::memory_order_acquire)) {
                // Every push happened before the flag: keep the tail and
                // stop once the queue is empty.
                while ((p = q.try_pop()).has_value()) drained.push_back(p->id);
                break;
            }
        }
    });
    for (auto& s : submitters) s.join();
    done_submitting.store(true, std::memory_order_release);
    drainer.join();

    EXPECT_EQ(drained.size() + rejected.load(), kThreads * kPerThread);
    // Per-submitter FIFO: sequence numbers of each thread appear increasing.
    std::vector<std::int64_t> last_seq(kThreads, -1);
    for (const std::uint64_t id : drained) {
        const std::size_t t = id / 1000;
        const std::int64_t seq = static_cast<std::int64_t>(id % 1000);
        ASSERT_LT(t, kThreads);
        EXPECT_GT(seq, last_seq[t]) << "thread " << t << " order violated";
        last_seq[t] = seq;
    }
}

TEST(RequestQueue, SjfSchedulerPicksShortestRemainingWork) {
    RequestQueue q(8);
    ASSERT_TRUE(q.push(req(1, /*prompt=*/10, /*max_new=*/20)));  // work 30
    ASSERT_TRUE(q.push(req(2, /*prompt=*/2, /*max_new=*/3)));    // work 5
    ASSERT_TRUE(q.push(req(3, /*prompt=*/2, /*max_new=*/3)));    // work 5 (tie)
    ASSERT_TRUE(q.push(req(4, /*prompt=*/1, /*max_new=*/1)));    // work 2

    const SjfScheduler sjf;
    EXPECT_EQ(q.pop_with(sjf)->id, 4u);
    EXPECT_EQ(q.pop_with(sjf)->id, 2u);  // tie keeps FIFO order
    EXPECT_EQ(q.pop_with(sjf)->id, 3u);
    EXPECT_EQ(q.pop_with(sjf)->id, 1u);
}

TEST(RequestQueue, FcfsSchedulerIsTryPop) {
    RequestQueue q(4);
    ASSERT_TRUE(q.push(req(1, 9, 9)));
    ASSERT_TRUE(q.push(req(2, 1, 1)));
    EXPECT_EQ(q.pop_with(FcfsScheduler{})->id, 1u);
    EXPECT_EQ(q.try_pop()->id, 2u);
}

TEST(RequestQueue, PopIfChargesPassedOverRequests) {
    RequestQueue q(8);
    ASSERT_TRUE(q.push(req(1, /*prompt=*/10, /*max_new=*/20)));  // big, oldest
    ASSERT_TRUE(q.push(req(2, 1, 1)));
    ASSERT_TRUE(q.push(req(3, 1, 1)));
    const SjfScheduler sjf;
    const auto admit_all = [](PendingRequest&) { return true; };

    RequestQueue::PopOutcome out = q.pop_if(sjf, admit_all);
    ASSERT_TRUE(out.req.has_value());
    EXPECT_EQ(out.req->id, 2u);
    EXPECT_FALSE(out.promoted);
    out = q.pop_if(sjf, admit_all);
    EXPECT_EQ(out.req->id, 3u);
    // The big request watched two younger submissions jump it.
    out = q.pop_if(sjf, admit_all);
    EXPECT_EQ(out.req->id, 1u);
    EXPECT_EQ(out.req->times_deferred, 2u);
}

TEST(RequestQueue, PopIfPromotesAtMaxDeferrals) {
    RequestQueue q(8);
    ASSERT_TRUE(q.push(req(1, 10, 20)));  // big: never SJF's pick
    for (std::uint64_t id = 2; id <= 5; ++id) ASSERT_TRUE(q.push(req(id, 1, 1)));
    const SjfScheduler sjf;
    const auto admit_all = [](PendingRequest&) { return true; };

    // With the guard at 2, two smalls pass; the third pop is forced to the
    // big request even though shorter work is still queued.
    EXPECT_EQ(q.pop_if(sjf, admit_all, 2).req->id, 2u);
    EXPECT_EQ(q.pop_if(sjf, admit_all, 2).req->id, 3u);
    RequestQueue::PopOutcome promoted = q.pop_if(sjf, admit_all, 2);
    ASSERT_TRUE(promoted.req.has_value());
    EXPECT_EQ(promoted.req->id, 1u);
    EXPECT_TRUE(promoted.promoted);
    EXPECT_EQ(promoted.req->times_deferred, 2u);
    // Remaining smalls drain normally.
    EXPECT_EQ(q.pop_if(sjf, admit_all, 2).req->id, 4u);
}

TEST(RequestQueue, RefusedPromotedPickStillBlocksAdmission) {
    RequestQueue q(8);
    PendingRequest big = req(1, 10, 20);
    big.times_deferred = 5;  // already past the guard
    ASSERT_TRUE(q.push(std::move(big)));
    ASSERT_TRUE(q.push(req(2, 1, 1)));
    const SjfScheduler sjf;

    // The promoted pick is refused (no capacity): admission defers in place —
    // the small request must NOT slip past it, or promotion would starve.
    const RequestQueue::PopOutcome out = q.pop_if(
        sjf, [](PendingRequest& r) { return r.id != 1; }, 3);
    EXPECT_FALSE(out.req.has_value());
    EXPECT_TRUE(out.deferred);
    EXPECT_EQ(q.size(), 2u);
}

}  // namespace
}  // namespace efld::serve
