#include <chrono>
#include <thread>

#include "simt/device.hpp"

namespace simt {

void Device::check_launch(const LaunchConfig& cfg) {
    bump_progress();  // heartbeat: a launch reached the device
    if (cfg.grid_dim == 0 || cfg.block_dim == 0) {
        throw LaunchError("launch '" + cfg.name + "': zero grid or block dimension");
    }
    if (cfg.block_dim > props_.max_threads_per_block) {
        throw LaunchError("launch '" + cfg.name + "': block_dim " +
                          std::to_string(cfg.block_dim) + " exceeds device limit " +
                          std::to_string(props_.max_threads_per_block));
    }

    if (faults_) {
        // Corruption models bit flips since the previous launch, so it is
        // applied (and, in detected mode, raised) before this kernel's body
        // consumes the data; the launch-fail check then decides whether the
        // launch itself is refused.  Neither hook runs a block or logs stats.
        const auto corrupt = faults_->on_launch_corrupt(memory_, cfg.name);
        std::uint64_t launch_ordinal = 0;
        const bool refuse = faults_->on_launch_fail(cfg.name, launch_ordinal);
        if (corrupt.fired && corrupt.detected) {
            throw TransferError(corrupt.offset, corrupt.bits);
        }
        if (refuse) {
            throw LaunchFault(cfg.name, launch_ordinal);
        }
        if (faults_->on_launch_hang(cfg.name, launch_ordinal)) {
            // The stuck-kernel arm: hold the launch in wall time, polling the
            // hang handler, until it says Abort or the plan's safety valve
            // expires.  Progress ticks are NOT bumped while hung — that is
            // exactly the stagnation a watchdog detects.
            const auto& plan = faults_->plan();
            const auto poll = std::chrono::microseconds(std::max<std::uint64_t>(
                plan.hang_check_us, 1));
            const auto start = std::chrono::steady_clock::now();
            for (;;) {
                if (hang_handler_ && hang_handler_() == HangAction::Abort) break;
                const double hung_ms = std::chrono::duration<double, std::milli>(
                                           std::chrono::steady_clock::now() - start)
                                           .count();
                if (hung_ms >= plan.hang_max_ms) break;
                std::this_thread::sleep_for(poll);
            }
            const double hung_ms = std::chrono::duration<double, std::milli>(
                                       std::chrono::steady_clock::now() - start)
                                       .count();
            throw StallFault(cfg.name, launch_ordinal, hung_ms);
        }
    }
}

double Device::total_modeled_ms() const {
    double total = 0.0;
    for (const KernelStats& k : kernel_log_) total += k.modeled_ms;
    return total;
}

double Device::total_wall_ms() const {
    double total = 0.0;
    for (const KernelStats& k : kernel_log_) total += k.wall_ms;
    return total;
}

}  // namespace simt
