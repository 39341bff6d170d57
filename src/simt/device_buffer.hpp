#pragma once

#include <cstring>
#include <span>
#include <utility>

#include "simt/device.hpp"

namespace simt {

/// RAII handle to a typed allocation in simulated device global memory.
/// Move-only, like a cudaMalloc'd pointer wrapped in a unique owner.
template <typename T>
class DeviceBuffer {
    static_assert(std::is_trivially_copyable_v<T>,
                  "device memory holds trivially copyable objects only");

  public:
    DeviceBuffer() = default;

    DeviceBuffer(Device& device, std::size_t count)
        : device_(&device), count_(count), offset_(device.memory().allocate(count * sizeof(T))) {}

    /// Non-owning view of device memory someone else allocated (a pooling
    /// sub-allocator, a sub-range of a bigger buffer).  The view behaves
    /// like a DeviceBuffer everywhere a kernel driver needs one, but its
    /// destructor never touches the allocator — lifetime stays with the
    /// real owner.
    [[nodiscard]] static DeviceBuffer borrow(Device& device, std::size_t offset,
                                             std::size_t count) {
        DeviceBuffer b;
        b.device_ = &device;
        b.count_ = count;
        b.offset_ = offset;
        b.owning_ = false;
        return b;
    }

    DeviceBuffer(DeviceBuffer&& o) noexcept
        : device_(std::exchange(o.device_, nullptr)),
          count_(std::exchange(o.count_, 0)),
          offset_(std::exchange(o.offset_, 0)),
          owning_(std::exchange(o.owning_, true)) {}

    DeviceBuffer& operator=(DeviceBuffer&& o) noexcept {
        if (this != &o) {
            release();
            device_ = std::exchange(o.device_, nullptr);
            count_ = std::exchange(o.count_, 0);
            offset_ = std::exchange(o.offset_, 0);
            owning_ = std::exchange(o.owning_, true);
        }
        return *this;
    }

    DeviceBuffer(const DeviceBuffer&) = delete;
    DeviceBuffer& operator=(const DeviceBuffer&) = delete;

    ~DeviceBuffer() { release(); }

    [[nodiscard]] bool empty() const { return count_ == 0; }
    [[nodiscard]] std::size_t size() const { return count_; }
    [[nodiscard]] std::size_t size_bytes() const { return count_ * sizeof(T); }
    [[nodiscard]] std::size_t offset() const { return offset_; }
    [[nodiscard]] Device* device() const { return device_; }
    [[nodiscard]] bool owning() const { return owning_; }

    /// Host view of the device data (Backed mode only).
    [[nodiscard]] std::span<T> span() {
        if (count_ == 0) return {};
        return {reinterpret_cast<T*>(device_->memory().translate(offset_)), count_};
    }
    [[nodiscard]] std::span<const T> span() const {
        if (count_ == 0) return {};
        return {reinterpret_cast<const T*>(device_->memory().translate(offset_)), count_};
    }

    /// Frees an owning buffer's allocation, an empty one's included: the
    /// allocator gives a zero-byte request a block of its own.
    void release() {
        if (device_ != nullptr && owning_) {
            device_->memory().deallocate(offset_);
        }
        device_ = nullptr;
        count_ = 0;
        offset_ = 0;
        owning_ = true;
    }

  private:
    Device* device_ = nullptr;
    std::size_t count_ = 0;
    std::size_t offset_ = 0;
    bool owning_ = true;
};

/// Copies host data into a device buffer; returns modeled H2D milliseconds.
template <typename T>
double copy_to_device(std::span<const T> host, DeviceBuffer<T>& dst) {
    std::memcpy(dst.span().data(), host.data(),
                std::min(host.size_bytes(), dst.size_bytes()));
    return dst.device()->transfer_ms(std::min(host.size_bytes(), dst.size_bytes()));
}

/// Copies device data back to host; returns modeled D2H milliseconds.
template <typename T>
double copy_to_host(const DeviceBuffer<T>& src, std::span<T> host) {
    std::memcpy(host.data(), src.span().data(),
                std::min(host.size_bytes(), src.size_bytes()));
    return src.device()->transfer_ms(std::min(host.size_bytes(), src.size_bytes()));
}

}  // namespace simt
