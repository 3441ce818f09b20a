// Chatbot over the serial console — the paper's motivating edge scenario
// (Fig. 1: "Tokenizer & Decode Program" on the PS, accelerator on the PL,
// tokens streaming out of the UART).
//
// Runs a multi-turn loop on a tiny synthetic model, echoing tokens to stdout
// as they would appear on the KV260's serial port, with the simulated
// decode rate after each turn. Pass prompts as arguments to script it:
//   $ ./chatbot "tell me about FPGAs" "and memory bandwidth"
#include <cstdio>
#include <string>
#include <vector>

#include "runtime/session.hpp"

int main(int argc, char** argv) {
    using namespace efld;

    std::vector<std::string> prompts;
    for (int i = 1; i < argc; ++i) prompts.emplace_back(argv[i]);
    if (prompts.empty()) {
        prompts = {"Hello, little language model.", "What lives in DDR4?",
                   "Goodbye."};
    }

    runtime::SessionOptions opts;
    opts.sampler.temperature = 0.9f;
    opts.sampler.top_p = 0.95f;
    opts.sampler.seed = 7;
    opts.echo_to_stdout = true;  // stream tokens like the UART does
    auto session =
        runtime::InferenceSession::synthetic(model::ModelConfig::micro_256(), 9, opts);

    std::printf("-- KV260 bare-metal chat (synthetic %s; weights are random, so\n"
                "-- replies are gibberish: this demo exercises the *system*, "
                "end to end)\n\n",
                session.config().name.c_str());

    for (const std::string& prompt : prompts) {
        std::printf("user> %s\nbot > ", prompt.c_str());
        const runtime::GenerationOutput out = session.generate(prompt, 32);
        std::printf("      [%zu tokens, %.1f token/s simulated on KV260]\n\n",
                    out.tokens.size(), out.simulated_tokens_per_s());
        if (session.position() + 48 >= session.config().max_seq_len) {
            std::printf("-- context window (%llu) nearly full; clearing KV cache --\n",
                        static_cast<unsigned long long>(session.config().max_seq_len));
            session.reset();
        }
    }
    return 0;
}
