// Fault-tolerant cluster serving: a shard scripted to die mid-workload must
// not cost a single accepted request or duplicate a single streamed token.
// Displaced requests fail over to survivors and finish with bit-for-bit the
// tokens a fault-free single engine produces; the failed shard's governor
// commitments release; restart_shard() brings the slot back into rotation.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "runtime/serve.hpp"

namespace efld::cluster {
namespace {

runtime::ClusterDeployment deploy(ClusterOptions opts, std::uint64_t seed = 42) {
    opts.shard.sampler.temperature = 0.0f;  // deterministic
    return runtime::synthetic_cluster(model::ModelConfig::micro_256(), seed, opts);
}

// Fault-free single-engine reference for the same prompts: failover must not
// change anyone's tokens.
std::vector<std::vector<std::int32_t>> reference_tokens(
    const std::vector<std::string>& prompts, std::size_t max_new,
    runtime::ServeOptions so = {}) {
    so.sampler.temperature = 0.0f;
    runtime::ServeDeployment single =
        runtime::synthetic_serve(model::ModelConfig::micro_256(), 42, so);
    std::vector<runtime::RequestHandle> futs;
    futs.reserve(prompts.size());
    for (const std::string& p : prompts) {
        futs.push_back(single.engine->submit(runtime::ServeRequest{
            .prompt = p, .max_new_tokens = max_new}));
    }
    single.engine->run_until_idle();
    std::vector<std::vector<std::int32_t>> out;
    out.reserve(futs.size());
    for (auto& f : futs) out.push_back(f.get().tokens);
    return out;
}

// Thread-safe per-request stream transcript, for exactly-once assertions.
struct StreamLog {
    std::mutex mu;
    std::map<std::uint64_t, std::vector<std::int32_t>> streamed;

    runtime::ServeRequest tap(std::string prompt, std::size_t max_new,
                              std::uint64_t key) {
        return runtime::ServeRequest{
            .prompt = std::move(prompt),
            .max_new_tokens = max_new,
            .on_token = [this, key](std::int32_t tok, std::string_view) {
                const std::lock_guard<std::mutex> lock(mu);
                streamed[key].push_back(tok);
            }};
    }
};

TEST(Failover, MidStreamKillLosesNoRequestAndDuplicatesNoToken) {
    ClusterOptions opts;
    opts.shards = 2;
    // Shard 0 dies on its 4th decode_batch call — past prefill (one prompt
    // tile) for these short prompts, so its requests are genuinely
    // mid-stream when killed.
    opts.shard_fault_specs = {"step:4"};
    runtime::ClusterDeployment d = deploy(opts);

    const std::size_t kMaxNew = 6;
    std::vector<std::string> prompts;
    for (int r = 0; r < 4; ++r) prompts.push_back("fo " + std::to_string(r));

    StreamLog log;
    std::vector<runtime::RequestHandle> handles;
    for (std::size_t r = 0; r < prompts.size(); ++r) {
        // Submit before start: least-loaded placement splits the four
        // requests two per shard, so shard 0 has victims.
        handles.push_back(d.router->submit(log.tap(prompts[r], kMaxNew, r)));
    }
    d.router->start();

    const std::vector<std::vector<std::int32_t>> want =
        reference_tokens(prompts, kMaxNew);
    std::size_t displaced = 0;
    for (std::size_t r = 0; r < handles.size(); ++r) {
        const runtime::ServeResult& res = handles[r].get();
        EXPECT_EQ(res.finish_reason, runtime::FinishReason::kBudget)
            << "request " << r;
        // Token parity with the fault-free run — head generated on the dead
        // shard, tail on the survivor, same sequence.
        EXPECT_EQ(res.tokens, want[r]) << "request " << r;
        // Exactly-once streaming: the transcript on_token saw is the result,
        // with no position delivered twice (replayed prefill never streams).
        const std::lock_guard<std::mutex> lock(log.mu);
        EXPECT_EQ(log.streamed[r], res.tokens) << "request " << r;
        displaced += res.failovers > 0 ? 1 : 0;
    }
    EXPECT_GE(displaced, 1u);  // shard 0 really was killed mid-workload

    const runtime::ClusterStats cs = d.router->stats();
    EXPECT_EQ(cs.shard_failures, 1u);
    EXPECT_EQ(cs.health[0], ShardHealth::kFailed);
    EXPECT_EQ(cs.health[1], ShardHealth::kHealthy);
    EXPECT_EQ(cs.healthy_shards(), 1u);
    EXPECT_EQ(cs.requests_lost, 0u);
    EXPECT_GE(cs.requests_failed_over, displaced);
    EXPECT_GT(cs.replayed_tokens(), 0u);  // mid-stream resume really replayed
    EXPECT_EQ(cs.requests_completed(), prompts.size());
    ASSERT_NE(d.router->shard_error(0), nullptr);
    EXPECT_THROW(std::rethrow_exception(d.router->shard_error(0)), efld::Error);

    // A backend fault is handled, not parked: stop() must not rethrow it.
    EXPECT_NO_THROW(d.router->stop());
}

TEST(Failover, StochasticSamplingResumesOnTheFaultFreeStream) {
    // Temperature > 0: the survivor replays the dead shard's prompt and
    // streamed tokens as prompt tiles and discards one sampler draw per
    // replayed position, so the continuation stays on the fault-free RNG
    // stream and the tokens match a fault-free run exactly.
    model::SamplerConfig sampler;
    sampler.temperature = 0.9f;
    sampler.seed = 1234;
    ClusterOptions opts;
    opts.shards = 2;
    opts.shard.sampler = sampler;
    // Two longer-than-a-tile prompts per shard: prefill takes shard 0 four
    // steps, so its 6th step lands mid-decode.
    opts.shard_fault_specs = {"step:6"};
    runtime::ClusterDeployment d = runtime::synthetic_cluster(
        model::ModelConfig::micro_256(), 42, opts);

    const std::size_t kMaxNew = 10;
    std::vector<std::string> prompts;
    for (int r = 0; r < 4; ++r) {
        prompts.push_back("stochastic failover prompt number " + std::to_string(r));
    }
    StreamLog log;
    std::vector<runtime::RequestHandle> handles;
    for (std::size_t r = 0; r < prompts.size(); ++r) {
        handles.push_back(d.router->submit(log.tap(prompts[r], kMaxNew, r)));
    }
    d.router->start();

    runtime::ServeOptions so;
    so.sampler = sampler;
    runtime::ServeDeployment single =
        runtime::synthetic_serve(model::ModelConfig::micro_256(), 42, so);
    std::size_t displaced = 0;
    for (std::size_t r = 0; r < handles.size(); ++r) {
        runtime::RequestHandle want = single.engine->submit(
            runtime::ServeRequest{.prompt = prompts[r], .max_new_tokens = kMaxNew});
        single.engine->run_until_idle();
        const runtime::ServeResult& res = handles[r].get();
        EXPECT_EQ(res.tokens, want.get().tokens) << "request " << r;
        const std::lock_guard<std::mutex> lock(log.mu);
        EXPECT_EQ(log.streamed[r], res.tokens) << "request " << r;
        displaced += res.failovers > 0 ? 1 : 0;
    }
    EXPECT_GE(displaced, 1u);
    const runtime::ClusterStats cs = d.router->stats();
    EXPECT_EQ(cs.shard_failures, 1u);
    EXPECT_EQ(cs.requests_lost, 0u);
    EXPECT_GT(cs.replayed_tokens(), 0u);  // killed mid-decode: tokens replayed
    d.router->stop();
}

TEST(Failover, AdmissionFaultFailsOverQueuedRequests) {
    // alloc:1 kills shard 0 the first time it tries to seat a session — the
    // admission path must stage the fault and hand every queued request over.
    ClusterOptions opts;
    opts.shards = 2;
    opts.shard_fault_specs = {"alloc:1"};
    runtime::ClusterDeployment d = deploy(opts);

    std::vector<std::string> prompts = {"aa", "bb", "cc", "dd"};
    std::vector<runtime::RequestHandle> handles;
    for (const std::string& p : prompts) {
        handles.push_back(
            d.router->submit(runtime::ServeRequest{.prompt = p, .max_new_tokens = 5}));
    }
    d.router->start();

    const std::vector<std::vector<std::int32_t>> want = reference_tokens(prompts, 5);
    for (std::size_t r = 0; r < handles.size(); ++r) {
        const runtime::ServeResult& res = handles[r].get();
        EXPECT_EQ(res.finish_reason, runtime::FinishReason::kBudget);
        EXPECT_EQ(res.tokens, want[r]) << "request " << r;
    }
    const runtime::ClusterStats cs = d.router->stats();
    EXPECT_EQ(cs.shard_failures, 1u);
    EXPECT_EQ(cs.requests_lost, 0u);
    // Nothing ran on shard 0 before the fault, so nothing needed replaying.
    EXPECT_EQ(cs.shards[0].stats.generated_tokens, 0u);
    d.router->stop();
}

TEST(Failover, FailedShardReleasesItsGovernorCommitments) {
    ClusterOptions opts;
    opts.shards = 2;
    opts.shard.paging = true;
    opts.shard.kv_page_tokens = 8;
    opts.shard.kv_pool_pages = 16;
    opts.shard_fault_specs = {"step:6"};
    runtime::ClusterDeployment d = deploy(opts);

    std::vector<std::string> prompts = {"pg0", "pg1", "pg2", "pg3"};
    std::vector<runtime::RequestHandle> handles;
    for (const std::string& p : prompts) {
        handles.push_back(d.router->submit(
            runtime::ServeRequest{.prompt = p, .max_new_tokens = 8}));
    }
    d.router->start();
    const std::vector<std::vector<std::int32_t>> want = reference_tokens(
        prompts, 8,
        runtime::ServeOptions{.paging = true, .kv_page_tokens = 8, .kv_pool_pages = 16});
    for (std::size_t r = 0; r < handles.size(); ++r) {
        EXPECT_EQ(handles[r].get().tokens, want[r]) << "request " << r;
    }

    // The dead shard admitted sessions (pages committed) and will never
    // retire them — if failure handling skipped the governor release, these
    // pages would be committed forever.
    const runtime::ClusterStats cs = d.router->stats();
    EXPECT_EQ(cs.shards[0].stats.backend_failures, 1u);
    EXPECT_EQ(cs.shards[0].committed_pages, 0u);
    EXPECT_EQ(cs.committed_pages(), 0u);  // survivor released on retire too
    d.router->stop();
}

TEST(Failover, RestartShardRejoinsTheRotation) {
    ClusterOptions opts;
    opts.shards = 2;
    opts.shard_fault_specs = {"step:4"};
    runtime::ClusterDeployment d = deploy(opts);

    std::vector<runtime::RequestHandle> handles;
    for (int r = 0; r < 4; ++r) {
        handles.push_back(d.router->submit(runtime::ServeRequest{
            .prompt = "rs " + std::to_string(r), .max_new_tokens = 4}));
    }
    d.router->start();
    for (auto& h : handles) (void)h.get();  // shard 0 is dead by now
    ASSERT_EQ(d.router->shard_health(0), ShardHealth::kFailed);

    // Restarting a live shard would drop its work; only kFailed restarts.
    EXPECT_THROW(d.router->restart_shard(1), efld::Error);
    EXPECT_THROW(d.router->restart_shard(9), std::out_of_range);

    d.router->restart_shard(0);
    EXPECT_EQ(d.router->shard_health(0), ShardHealth::kRestarted);
    EXPECT_EQ(d.router->shard_error(0), nullptr)
        << "restart clears the recorded fault";

    // The replacement engine is fault-free (the script killed the original
    // device, not its successor) and serving-eligible immediately.
    std::vector<runtime::RequestHandle> again;
    for (int r = 0; r < 4; ++r) {
        again.push_back(d.router->submit(runtime::ServeRequest{
            .prompt = "again " + std::to_string(r), .max_new_tokens = 4}));
    }
    d.router->drain();
    for (auto& h : again) {
        EXPECT_EQ(h.get().finish_reason, runtime::FinishReason::kBudget);
    }
    const runtime::ClusterStats cs = d.router->stats();
    EXPECT_EQ(cs.shard_restarts, 1u);
    EXPECT_EQ(cs.healthy_shards(), 2u);
    // The restarted slot pulled its share of the post-restart load.
    EXPECT_GT(cs.shards[0].stats.requests_completed, 0u);
    d.router->stop();
}

TEST(Failover, TotalOutageResolvesShardFailureInsteadOfHanging) {
    ClusterOptions opts;
    opts.shards = 1;
    opts.shard_fault_specs = {"step:1"};
    runtime::ClusterDeployment d = deploy(opts);

    auto h0 = d.router->submit(runtime::ServeRequest{.prompt = "x0", .max_new_tokens = 4});
    auto h1 = d.router->submit(runtime::ServeRequest{.prompt = "x1", .max_new_tokens = 4});
    d.router->start();

    // No survivor exists: both handles must resolve (not hang) with
    // kShardFailure and whatever was streamed before the death — here
    // nothing, the backend died on its first step.
    EXPECT_EQ(h0.get().finish_reason, runtime::FinishReason::kShardFailure);
    EXPECT_EQ(h1.get().finish_reason, runtime::FinishReason::kShardFailure);
    EXPECT_TRUE(h0.get().tokens.empty());

    runtime::ClusterStats cs = d.router->stats();
    EXPECT_EQ(cs.healthy_shards(), 0u);
    EXPECT_EQ(cs.requests_lost, 2u);

    // A cluster with zero healthy shards is an outage, not backpressure.
    EXPECT_THROW((void)d.router->try_submit(runtime::ServeRequest{
                     .prompt = "down", .max_new_tokens = 2}),
                 efld::Error);

    // Recovery from total outage: restart, and admission works again.
    d.router->restart_shard(0);
    auto ok = d.router->try_submit(
        runtime::ServeRequest{.prompt = "up", .max_new_tokens = 3});
    ASSERT_TRUE(ok.accepted);
    d.router->drain();
    EXPECT_EQ(ok.handle.get().tokens.size(), 3u);
    d.router->stop();
}

}  // namespace
}  // namespace efld::cluster
