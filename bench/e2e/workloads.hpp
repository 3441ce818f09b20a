// The benchmark's workloads. Each builds its deployment (timed as set-up),
// sends the traffic generated for (workload, seed), checks every output, and
// reports end-to-end metrics; a traced run additionally switches on the
// program's own instrumentation and runs the per-layer probes after the
// load.
#pragma once

#include <string>

#include "measure.hpp"
#include "traffic.hpp"

namespace efld::bench {

struct RunOptions {
    double seconds = 10.0;
    bool traced = false;
};

struct RunResult {
    Report report;
    std::string trace_json;  // traced runs: the merged Perfetto document
};

[[nodiscard]] RunResult run_workload(const Traffic& traffic, const RunOptions& opts);

}  // namespace efld::bench
