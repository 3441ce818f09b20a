// Quickstart: build a model, run it on the simulated accelerator, read the
// decode rate.
//
//   $ ./quickstart
//
// Uses a tiny synthetic model so it finishes in seconds; the same API drives
// the full LLaMA2-7B geometry (see bandwidth_explorer for the 7B timing path).
#include <cstdio>

#include "runtime/session.hpp"

int main() {
    using namespace efld;

    // 1. An inference session: synthetic weights -> AWQ-style W4 group-128
    //    quantization -> Fig. 4A packed streams -> accelerator simulator.
    runtime::SessionOptions opts;
    opts.sampler.temperature = 0.8f;
    opts.sampler.top_k = 40;
    opts.sampler.seed = 2025;
    auto session =
        runtime::InferenceSession::synthetic(model::ModelConfig::tiny_512(), 42, opts);

    std::printf("model: %s (dim %llu, %llu layers, vocab %llu)\n",
                session.config().name.c_str(),
                static_cast<unsigned long long>(session.config().dim),
                static_cast<unsigned long long>(session.config().n_layers),
                static_cast<unsigned long long>(session.config().vocab_size));

    // 2. Generate. The weights are random, so the text is gibberish — the
    //    point is the full pipeline: tokenizer -> prefill -> fused decode ->
    //    KV8 cache -> sampler, with per-token simulated KV260 latency.
    const runtime::GenerationOutput out = session.generate("Hello FPGA", 24);

    std::printf("generated %zu tokens\n", out.tokens.size());
    std::printf("simulated decode rate on KV260: %.1f token/s\n",
                out.simulated_tokens_per_s());
    std::printf("(LLaMA2-7B at the same settings decodes at ~5 token/s; see\n"
                " bench_paper for the full-scale run)\n");
    return 0;
}
