#include "runtime/host.hpp"

#include "common/check.hpp"
#include "memsim/memory_system.hpp"
#include "runtime/loader.hpp"
#include "runtime/memory_planner.hpp"

namespace efld::runtime {

BareMetalHost::BareMetalHost(std::unique_ptr<accel::PackedModel> m, BootReport report,
                             accel::AcceleratorOptions opts)
    : model_(std::move(m)),
      report_(report),
      accel_(std::make_unique<accel::Accelerator>(*model_, opts)),
      slot_(accel_->reserve_slot()),
      logits_(model_->config.vocab_size) {}

BareMetalHost BareMetalHost::boot(const std::vector<std::uint8_t>& image,
                                  SdCardConfig sd, accel::AcceleratorOptions opts) {
    BootReport report;
    report.image_bytes = image.size();
    report.sd_load_s = estimated_sd_load_s(image.size(), sd);

    // deserialize_model() verifies the CRC; reaching the next line means ok.
    auto m = std::make_unique<accel::PackedModel>(deserialize_model(image));
    report.crc_ok = true;

    // Placing the image in DDR costs one sequential write pass at stream rate.
    memsim::MemorySystem mem(memsim::MemorySystemConfig::kv260());
    report.ddr_copy_s =
        mem.service({0, image.size(), memsim::Dir::kWrite}) * 1e-9;

    const MemoryPlan plan =
        MemoryPlanner::plan_kv260(m->config, model::QuantScheme::w4a16_kv8());
    check(plan.fits, "BareMetalHost: model does not fit the KV260 memory map");
    report.capacity_utilization = plan.utilization;

    return BareMetalHost(std::move(m), report, opts);
}

std::span<const float> BareMetalHost::execute(const accel::TokenCommand& cmd) {
    accel_->decode_batch(std::span<const std::int32_t>(&cmd.token_index, 1),
                         std::span<const std::size_t>(&slot_, 1), logits_);
    return logits_;
}

}  // namespace efld::runtime
