// Bare-metal host program model (§VII.A).
//
// The PS-side C program the paper describes: copy the converted model image
// from the SD card into DDR (no OS, no filesystem cache — a long sequential
// read at SD-card speed), verify it, set up the address map, then sit in a
// loop feeding token commands to the accelerator over AXI-Lite and reading
// logits back. BareMetalHost reproduces that flow against the simulator and
// reports boot-time numbers a KV260 user would actually experience.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "accel/accelerator.hpp"
#include "accel/mcu.hpp"

namespace efld::runtime {

struct SdCardConfig {
    double read_mb_s = 25.0;  // default-speed SDHC sequential read
};

struct BootReport {
    std::uint64_t image_bytes = 0;
    double sd_load_s = 0.0;      // time to stream the image off the SD card
    double ddr_copy_s = 0.0;     // time to place it in DDR at stream rate
    bool crc_ok = false;
    double capacity_utilization = 0.0;  // of the 4 GiB map after placement

    [[nodiscard]] double total_boot_s() const noexcept { return sd_load_s + ddr_copy_s; }
};

class BareMetalHost {
public:
    // Parses + verifies `image` (throws efld::Error on corruption), plans the
    // address map, brings up the accelerator and reserves the session slot
    // the command loop decodes into.
    static BareMetalHost boot(const std::vector<std::uint8_t>& image,
                              SdCardConfig sd = {},
                              accel::AcceleratorOptions opts = {});

    // Executes one AXI-Lite token command as one decode_batch step and
    // returns its logits (valid until the next command); prefill commands run
    // the model but a caller typically ignores their logits. The step's
    // simulated time is accelerator().last_step_cost().simulated_ns.
    std::span<const float> execute(const accel::TokenCommand& cmd);

    [[nodiscard]] const BootReport& report() const noexcept { return report_; }
    [[nodiscard]] accel::Accelerator& accelerator() noexcept { return *accel_; }
    [[nodiscard]] std::size_t slot() const noexcept { return slot_; }
    [[nodiscard]] const model::ModelConfig& config() const noexcept {
        return model_->config;
    }

    // Boot-time arithmetic without materializing a model (7B planning).
    [[nodiscard]] static double estimated_sd_load_s(std::uint64_t image_bytes,
                                                    const SdCardConfig& sd) noexcept {
        return static_cast<double>(image_bytes) / (sd.read_mb_s * 1e6);
    }

private:
    BareMetalHost(std::unique_ptr<accel::PackedModel> m, BootReport report,
                  accel::AcceleratorOptions opts);

    std::unique_ptr<accel::PackedModel> model_;
    BootReport report_;
    std::unique_ptr<accel::Accelerator> accel_;
    std::size_t slot_ = 0;        // the command loop's session slot
    std::vector<float> logits_;   // the last command's logits
};

}  // namespace efld::runtime
