// Boot flow demo: the full §VII.A bring-up — offline conversion to the
// SD-card image, bare-metal boot (load, CRC, memory map), then serving
// token commands.
//
//   $ ./boot_flow [image_path]
#include <cstdio>
#include <string>

#include "model/sampler.hpp"
#include "runtime/host.hpp"
#include "runtime/loader.hpp"

using namespace efld;

int main(int argc, char** argv) {
    const std::string path = argc > 1 ? argv[1] : "/tmp/efld_demo_model.bin";

    // --- offline flow (would run on a workstation) -----------------------
    std::printf("offline: quantizing synthetic %s to W4A16 g128 and packing to the "
                "bus format...\n",
                model::ModelConfig::tiny_512().name.c_str());
    const auto fw = model::ModelWeights::synthetic(model::ModelConfig::tiny_512(), 77);
    const auto qw = model::QuantizedModelWeights::quantize(fw, quant::GroupQuantConfig{});
    const accel::PackedModel packed = accel::PackedModel::build(qw);
    runtime::save_model(packed, path);
    std::printf("offline: wrote image %s (%.1f MiB)\n\n", path.c_str(),
                static_cast<double>(packed.weight_stream_bytes()) / 1048576.0);

    // --- on-device flow (bare-metal program on the KV260) ----------------
    const auto image_file = runtime::load_model(path);  // re-read for realism
    const auto image = runtime::serialize_model(image_file);
    runtime::BareMetalHost host = runtime::BareMetalHost::boot(image);
    const runtime::BootReport& r = host.report();
    std::printf("boot: image %.1f MiB, CRC %s\n",
                static_cast<double>(r.image_bytes) / 1048576.0, r.crc_ok ? "ok" : "BAD");
    std::printf("boot: SD load %.2f s @25 MB/s, DDR placement %.4f s, map "
                "utilization %.1f%%\n",
                r.sd_load_s, r.ddr_copy_s, 100 * r.capacity_utilization);
    std::printf("boot: a LLaMA2-7B image (3.8 GB) would take %.0f s from the same "
                "card — %.1f min of boot time\n\n",
                runtime::BareMetalHost::estimated_sd_load_s(3'800'000'000ull, {}),
                runtime::BareMetalHost::estimated_sd_load_s(3'800'000'000ull, {}) / 60.0);

    // Serve a few AXI-Lite token commands.
    std::printf("serving token commands:\n");
    double total_ns = 0;
    for (const std::int32_t tok : {1, 42, 7, 99}) {
        const std::int32_t next = model::Sampler::argmax(host.execute({tok, false}));
        const double ns = host.accelerator().last_step_cost().simulated_ns;
        total_ns += ns;
        std::printf("  token %3d -> argmax %3d  (%.3f ms simulated)\n", tok, next, ns / 1e6);
    }
    std::printf("decode rate: %.1f token/s simulated on the KV260 memory system\n",
                4.0 * 1e9 / total_ns);
    return 0;
}
