// Seeded traffic for the end-to-end benchmark's workloads.
//
// Every request a workload sends is generated here from (workload, seed)
// before any deployment is built, so the program under test sees only these
// inputs and a seed reproduces a run's traffic byte for byte.
//
// Lengths, budgets and inter-arrival gaps are stratified: each block of
// consecutive requests draws every stratum of its range exactly once, in a
// seeded order, with a seeded offset inside the stratum. The mix of work per
// request is therefore the same for every seed while content, order and
// exact values differ — which keeps a run's medians from swinging with the
// seed when a run only holds a few dozen requests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace efld::bench {

// The benchmark's workloads, in the order the set runner rotates them.
inline constexpr std::string_view kWorkloads[] = {
    "decode-long", "chat", "shared-prefix", "socket-interactive", "kv260-twin"};

[[nodiscard]] bool is_workload(std::string_view name) noexcept;

struct RequestSpec {
    // Open loop: send time in seconds from the start of the request's rung.
    // Closed loop: 0 (a client sends when its previous request completes).
    double due_s = 0.0;
    std::size_t rung = 0;  // open loop: index into Traffic::rates_rps
    std::string prompt;
    std::size_t max_new = 0;
};

struct Traffic {
    std::string workload;
    std::uint64_t seed = 0;
    bool open_loop = false;
    // Closed loop: clients cycle through `requests`, and a run ends at the
    // first completed block of `block` requests after the time budget, so
    // every run serves whole strata blocks.
    std::size_t clients = 1;
    std::size_t block = 1;
    // Open loop: one rung per rate with rung_s[i] seconds of arrivals. The
    // first rung, whose latencies are the workload's end-to-end numbers,
    // gets half of the time budget.
    std::vector<double> rates_rps;
    std::vector<double> rung_s;
    // Sent once each, in turn, before any measured request (shared-prefix).
    std::vector<std::string> system_prompts;
    std::vector<RequestSpec> warmup;    // excluded from every metric
    std::vector<RequestSpec> requests;  // measured, in send order
};

// Throws std::invalid_argument on an unknown workload or seconds <= 0.
[[nodiscard]] Traffic make_traffic(std::string_view workload, std::uint64_t seed,
                                   double seconds);

// Share of measured prompt characters that repeat a prefix of an earlier
// prompt (warm-up and system prompts count as earlier): for each request the
// longest common prefix with any earlier prompt, summed, over the summed
// prompt lengths. ~0 for unique prompts, ~0.9 for shared-prefix.
[[nodiscard]] double shared_prompt_frac(const Traffic& t);

// Human-readable listing of every generated request (--dump-traffic).
[[nodiscard]] std::string dump(const Traffic& t);

}  // namespace efld::bench
