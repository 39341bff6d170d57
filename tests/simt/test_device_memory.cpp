#include "simt/device_memory.hpp"

#include <gtest/gtest.h>

#include "simt/device.hpp"
#include "simt/device_buffer.hpp"

namespace {

using simt::DeviceBadAlloc;
using simt::DeviceMemory;

TEST(DeviceMemory, AllocationsAreAligned) {
    DeviceMemory mem(1 << 20, DeviceMemory::Mode::Backed);
    const std::size_t a = mem.allocate(10);
    const std::size_t b = mem.allocate(300);
    EXPECT_EQ(a % DeviceMemory::kAlignment, 0u);
    EXPECT_EQ(b % DeviceMemory::kAlignment, 0u);
    EXPECT_NE(a, b);
}

TEST(DeviceMemory, TracksBytesInUseWithAlignmentRounding) {
    DeviceMemory mem(1 << 20, DeviceMemory::Mode::Virtual);
    mem.allocate(10);  // rounds to 256
    EXPECT_EQ(mem.bytes_in_use(), 256u);
    mem.allocate(256);
    EXPECT_EQ(mem.bytes_in_use(), 512u);
}

TEST(DeviceMemory, ThrowsWhenFull) {
    DeviceMemory mem(1024, DeviceMemory::Mode::Virtual);
    mem.allocate(512);
    mem.allocate(512);
    EXPECT_THROW(mem.allocate(1), DeviceBadAlloc);
}

TEST(DeviceMemory, BadAllocCarriesContext) {
    DeviceMemory mem(1024, DeviceMemory::Mode::Virtual);
    mem.allocate(512);
    try {
        mem.allocate(1024);
        FAIL() << "expected DeviceBadAlloc";
    } catch (const DeviceBadAlloc& e) {
        EXPECT_EQ(e.requested(), 1024u);
        EXPECT_EQ(e.in_use(), 512u);
        EXPECT_EQ(e.capacity(), 1024u);
    }
}

TEST(DeviceMemory, DeallocateMakesSpaceReusable) {
    DeviceMemory mem(1024, DeviceMemory::Mode::Virtual);
    const std::size_t a = mem.allocate(1024);
    mem.deallocate(a);
    EXPECT_EQ(mem.bytes_in_use(), 0u);
    EXPECT_NO_THROW(mem.allocate(1024));
}

TEST(DeviceMemory, FreeListCoalescesNeighbours) {
    DeviceMemory mem(4096, DeviceMemory::Mode::Virtual);
    const std::size_t a = mem.allocate(1024);
    const std::size_t b = mem.allocate(1024);
    const std::size_t c = mem.allocate(1024);
    const std::size_t d = mem.allocate(1024);
    (void)d;
    // Free b, then a, then c: the three holes must merge into one 3 KB range.
    mem.deallocate(b);
    mem.deallocate(a);
    mem.deallocate(c);
    EXPECT_EQ(mem.largest_free_range(), 3 * 1024u);
    EXPECT_NO_THROW(mem.allocate(3 * 1024));
}

TEST(DeviceMemory, FragmentationCanFailLargeAllocation) {
    DeviceMemory mem(4096, DeviceMemory::Mode::Virtual);
    const std::size_t a = mem.allocate(1024);
    const std::size_t b = mem.allocate(1024);
    const std::size_t c = mem.allocate(1024);
    (void)a;
    (void)c;
    mem.deallocate(b);
    mem.allocate(1024);  // takes the final free quarter or the hole
    // 2 KB free total but split: a single 2 KB block must fail.
    EXPECT_THROW(mem.allocate(2 * 1024), DeviceBadAlloc);
}

TEST(DeviceMemory, PeakTracksHighWaterMark) {
    DeviceMemory mem(4096, DeviceMemory::Mode::Virtual);
    const std::size_t a = mem.allocate(2048);
    mem.deallocate(a);
    mem.allocate(256);
    EXPECT_EQ(mem.peak_bytes_in_use(), 2048u);
}

TEST(DeviceMemory, DoubleFreeIsIgnored) {
    DeviceMemory mem(4096, DeviceMemory::Mode::Virtual);
    const std::size_t a = mem.allocate(1024);
    mem.deallocate(a);
    mem.deallocate(a);
    EXPECT_EQ(mem.bytes_in_use(), 0u);
    EXPECT_EQ(mem.largest_free_range(), 4096u);
}

TEST(DeviceMemory, VirtualModeRefusesTranslation) {
    DeviceMemory mem(4096, DeviceMemory::Mode::Virtual);
    const std::size_t a = mem.allocate(128);
    EXPECT_THROW((void)mem.translate(a), simt::DeviceError);
}

TEST(DeviceMemory, BackedModeTranslatesWithinCapacity) {
    DeviceMemory mem(4096, DeviceMemory::Mode::Backed);
    const std::size_t a = mem.allocate(128);
    std::byte* p = mem.translate(a);
    ASSERT_NE(p, nullptr);
    p[0] = std::byte{42};
    EXPECT_EQ(mem.translate(a)[0], std::byte{42});
    EXPECT_THROW((void)mem.translate(1 << 20), simt::DeviceError);
}

TEST(DeviceMemory, ResetDropsEverything) {
    DeviceMemory mem(4096, DeviceMemory::Mode::Virtual);
    mem.allocate(1024);
    mem.allocate(1024);
    mem.reset();
    EXPECT_EQ(mem.bytes_in_use(), 0u);
    EXPECT_NO_THROW(mem.allocate(4096));
}

TEST(DeviceMemory, ZeroByteRequestsGetDistinctOffsets) {
    DeviceMemory mem(4096, DeviceMemory::Mode::Virtual);
    const std::size_t a = mem.allocate(0);
    const std::size_t b = mem.allocate(0);
    EXPECT_NE(a, b);
}

TEST(DeviceBuffer, RaiiReleasesOnDestruction) {
    simt::Device dev(simt::tiny_device(1 << 20));
    {
        simt::DeviceBuffer<float> buf(dev, 1024);
        EXPECT_EQ(dev.memory().bytes_in_use(), 1024 * sizeof(float));
    }
    EXPECT_EQ(dev.memory().bytes_in_use(), 0u);
}

TEST(DeviceBuffer, MoveTransfersOwnership) {
    simt::Device dev(simt::tiny_device(1 << 20));
    simt::DeviceBuffer<float> a(dev, 256);
    simt::DeviceBuffer<float> b(std::move(a));
    EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): documented state
    EXPECT_EQ(b.size(), 256u);
    EXPECT_EQ(dev.memory().allocation_count(), 1u);
    a = std::move(b);
    EXPECT_EQ(a.size(), 256u);
    EXPECT_EQ(dev.memory().allocation_count(), 1u);
}

TEST(DeviceBuffer, EmptyOwningBufferReleasesItsBlock) {
    // A zero-byte request still takes an allocator block; destroying the
    // empty buffer, or the buffer it was moved into, must give it back.
    simt::Device dev(simt::tiny_device(1 << 20));
    {
        simt::DeviceBuffer<float> empty(dev, 0);
        EXPECT_TRUE(empty.empty());
    }
    EXPECT_EQ(dev.memory().bytes_in_use(), 0u);
    {
        simt::DeviceBuffer<float> src(dev, 0);
        simt::DeviceBuffer<float> dst(std::move(src));
        simt::DeviceBuffer<float> assigned;
        assigned = std::move(dst);
        EXPECT_EQ(dev.memory().allocation_count(), 1u);
    }
    EXPECT_EQ(dev.memory().bytes_in_use(), 0u);
    EXPECT_EQ(dev.memory().allocation_count(), 0u);
}

TEST(DeviceBuffer, HostDeviceRoundTrip) {
    simt::Device dev(simt::tiny_device(1 << 20));
    std::vector<float> host = {3.0f, 1.0f, 2.0f};
    simt::DeviceBuffer<float> buf(dev, host.size());
    simt::copy_to_device(std::span<const float>(host), buf);
    std::vector<float> back(host.size());
    simt::copy_to_host(buf, std::span<float>(back));
    EXPECT_EQ(host, back);
}

TEST(DeviceBuffer, TransferTimeScalesWithBytes) {
    simt::Device dev(simt::tiny_device(1 << 20));
    const double ms_small = dev.transfer_ms(1024);
    const double ms_big = dev.transfer_ms(1024 * 1024);
    EXPECT_GT(ms_big, ms_small);
    EXPECT_NEAR(ms_big / ms_small, 1024.0, 1.0);
}

}  // namespace
