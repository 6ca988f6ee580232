// Zero-alloc steady state (docs/PERFORMANCE.md): the dispatch hot loop and
// everything it reaches must not touch the global heap once a node is
// warmed up, and trial teardown must be an arena rewind rather than a
// unique_ptr graveyard. The counting global operator new below is the
// proof: it is armed only inside measurement windows, so gtest's own
// allocations never pollute the counts. It also tracks live bytes (sizes
// from malloc_usable_size) and their peak, for whole-heap footprints.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "core/harness.h"
#include "core/node.h"
#include "core/signature.h"
#include "sim/arena.h"
#include "sim/engine.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<bool> g_counting{false};
/// Bytes allocated minus bytes freed inside the window, and its peak.
std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

void* counted(void* p) {
    if (p == nullptr) throw std::bad_alloc();
    if (g_counting.load(std::memory_order_relaxed)) {
        g_allocs.fetch_add(1, std::memory_order_relaxed);
        const auto bytes = static_cast<std::int64_t>(malloc_usable_size(p));
        const std::int64_t live = g_live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
        if (live > g_peak.load(std::memory_order_relaxed)) {
            g_peak.store(live, std::memory_order_relaxed);
        }
    }
    return p;
}

void release(void* p) noexcept {
    if (p != nullptr && g_counting.load(std::memory_order_relaxed)) {
        g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
    }
    std::free(p);
}

struct CountingWindow {
    CountingWindow() {
        g_allocs.store(0, std::memory_order_relaxed);
        g_live.store(0, std::memory_order_relaxed);
        g_peak.store(0, std::memory_order_relaxed);
        g_counting.store(true, std::memory_order_relaxed);
    }
    ~CountingWindow() { g_counting.store(false, std::memory_order_relaxed); }
    [[nodiscard]] static std::uint64_t count() {
        return g_allocs.load(std::memory_order_relaxed);
    }
    [[nodiscard]] static std::int64_t peak_bytes() {
        return g_peak.load(std::memory_order_relaxed);
    }
};

}  // namespace

// Replacement global operators pair malloc/aligned_alloc with free, which
// is well-formed for replaced operators; GCC's static pairing check does
// not model replacement and misfires here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) { return counted(std::malloc(n ? n : 1)); }
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
    return counted(std::aligned_alloc(static_cast<std::size_t>(a),
                                      (n + static_cast<std::size_t>(a) - 1) &
                                          ~(static_cast<std::size_t>(a) - 1)));
}
void* operator new[](std::size_t n, std::align_val_t a) {
    return ::operator new(n, a);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    release(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    release(p);
}

#pragma GCC diagnostic pop

namespace hpcsec {
namespace {

// --- arena unit tests --------------------------------------------------------

TEST(Arena, MakeRunsDestructorsInReverseOrderOnReset) {
    sim::Arena arena;
    std::vector<int> order;
    struct Tracked {
        std::vector<int>* order;
        int id;
        ~Tracked() { order->push_back(id); }
    };
    for (int i = 0; i < 4; ++i) arena.make<Tracked>(&order, i);
    arena.reset();
    EXPECT_EQ(order, (std::vector<int>{3, 2, 1, 0}));
}

TEST(Arena, TrivialTypesRegisterNoDestructorRecords) {
    sim::Arena arena;
    const std::size_t before = arena.bytes_used();
    arena.make<std::uint64_t>(7);
    // One u64 plus padding, but no DtorRec: under two pointer-triples.
    EXPECT_LT(arena.bytes_used() - before, 24u);
}

TEST(Arena, AllocationsAreAligned) {
    sim::Arena arena;
    arena.allocate(1, 1);  // knock the cursor off alignment
    struct alignas(16) Wide {
        char c;
    };
    auto* w = arena.make<Wide>();
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(w) % 16, 0u);
}

TEST(Arena, ResetKeepsChunksAndReusesThem) {
    sim::Arena arena;
    for (int i = 0; i < 1000; ++i) arena.make<std::uint64_t>(i);
    const std::size_t reserved = arena.bytes_reserved();
    const std::size_t chunks = arena.chunk_count();
    arena.reset();
    EXPECT_EQ(arena.bytes_used(), 0u);
    EXPECT_EQ(arena.bytes_reserved(), reserved);
    for (int i = 0; i < 1000; ++i) arena.make<std::uint64_t>(i);
    EXPECT_EQ(arena.bytes_reserved(), reserved);
    EXPECT_EQ(arena.chunk_count(), chunks);
}

TEST(Arena, ArenaAllocatorBacksStdVector) {
    sim::Arena arena;
    std::vector<int, sim::ArenaAllocator<int>> v{
        sim::ArenaAllocator<int>(arena)};
    for (int i = 0; i < 100; ++i) v.push_back(i);
    EXPECT_EQ(v[99], 99);
    EXPECT_GE(arena.bytes_used(), 100 * sizeof(int));
}

// --- event queue: cancel removes the entry ----------------------------------

// The Executor::preempt shape: a far-future chunk completion is cancelled
// and re-armed over and over while other events stay pending. Cancel frees
// the slot and its heap position at once, so the churn reuses one slot and
// the queue never grows.
TEST(EventQueueAlloc, CancelRearmChurnMakesZeroHeapAllocations) {
    sim::Engine eng;
    int fired = 0;
    eng.at(10, [&fired] { ++fired; });  // stays pending throughout
    sim::EventId far = eng.at(1'000'000, [&fired] { ++fired; });
    int cancelled = 0;
    const auto rearm = [&](sim::SimTime when) {
        cancelled += eng.cancel(far) ? 1 : 0;
        far = eng.at(when, [&fired] { ++fired; });
    };
    rearm(1'000'000);  // warm-up: the free list gets its capacity

    std::uint64_t allocs = 0;
    {
        CountingWindow window;
        for (int i = 1; i <= 100'000; ++i) rearm(1'000'000 + static_cast<sim::SimTime>(i));
        allocs = CountingWindow::count();
    }
    EXPECT_EQ(cancelled, 100'001);
    EXPECT_EQ(allocs, 0u) << "cancel/re-arm churn touched the global heap";
    EXPECT_EQ(eng.pending_events(), 2u);
    eng.run();
    EXPECT_EQ(fired, 2);
}

// --- zero-alloc steady state -------------------------------------------------

struct AllocFixture : ::testing::Test {
    core::ImageSigner signer{std::vector<std::uint8_t>(32, 77)};

    /// A 4-VM node: primary + secure compute + login super-secondary,
    /// plus one dynamically launched partition. Kernel and guest tick at
    /// 250 Hz so a 4 s window is a 1000-tick storm per kernel.
    core::NodeConfig four_vm_config() {
        core::NodeConfig cfg = core::Harness::default_config(
            core::SchedulerKind::kKittenPrimary, 17);
        cfg.with_super_secondary = true;
        cfg.kitten.tick_hz = 250.0;
        cfg.guest.tick_hz = 250.0;
        cfg.trusted_keys = {signer.public_key()};
        return cfg;
    }

    void add_fourth_vm(core::Node& node) {
        node.verifier().enroll(signer.public_key());
        auto img = signer.sign("steady-job", core::Node::make_image("steady-job"));
        ASSERT_TRUE(img.has_value());
        node.launch_dynamic_vm(*img, 64ull << 20, 2);
    }
};

TEST_F(AllocFixture, SteadyStateWindowMakesZeroHeapAllocations) {
    core::Node node(four_vm_config());
    node.boot();
    add_fourth_vm(node);
    ASSERT_EQ(node.spm()->vm_count(), 4);

    node.run_for(1.0);  // warm every growable container past its high-water mark
    const std::uint64_t events_before = node.platform().engine().events_executed();

    std::uint64_t allocs = 0;
    {
        CountingWindow window;
        node.run_for(4.0);  // 1000 ticks at 250 Hz, per kernel
        allocs = CountingWindow::count();
    }

    const std::uint64_t events =
        node.platform().engine().events_executed() - events_before;
    EXPECT_GE(events, 1000u) << "window too quiet to prove anything";
    EXPECT_EQ(allocs, 0u) << "steady-state dispatch touched the global heap";
}

TEST_F(AllocFixture, TeardownFreesViaArenaResetAcrossTrials) {
    sim::Arena arena;
    std::vector<std::size_t> per_trial_bytes;
    std::size_t reserved_after_first = 0;

    for (int trial = 0; trial < 3; ++trial) {
        core::NodeConfig cfg = core::Harness::default_config(
            core::SchedulerKind::kKittenPrimary, 100 + trial);
        cfg.platform.arena = &arena;
        {
            core::Node node(std::move(cfg));
            node.boot();
            node.run_for(0.05);
        }
        // The Node is gone but its cores/VMs/VCPUs/grants still sit in the
        // arena — teardown deferred to the rewind.
        EXPECT_GT(arena.bytes_used(), 0u);
        per_trial_bytes.push_back(arena.bytes_used());
        arena.reset();
        EXPECT_EQ(arena.bytes_used(), 0u);
        if (trial == 0) {
            reserved_after_first = arena.bytes_reserved();
        } else {
            // Steady state: later trials run entirely inside the chunks the
            // first trial warmed — the reset kept them.
            EXPECT_EQ(arena.bytes_reserved(), reserved_after_first);
        }
    }
    // Identical node shape => identical arena footprint, every trial.
    EXPECT_EQ(per_trial_bytes[1], per_trial_bytes[0]);
    EXPECT_EQ(per_trial_bytes[2], per_trial_bytes[0]);
}

// Whole-heap footprint, not only the arena: frame ownership is a handful of
// extents, so a 16x larger compute VM costs boot almost no extra heap.
TEST(WholeHeap, BootPeakDoesNotGrowWithComputeVmSize) {
    const auto boot_peak = [](std::uint64_t compute_bytes) {
        core::NodeConfig cfg = core::Harness::default_config(
            core::SchedulerKind::kKittenPrimary, 21);
        cfg.compute_mem_bytes = compute_bytes;
        core::Node node(std::move(cfg));
        CountingWindow window;
        node.boot();
        return CountingWindow::peak_bytes();
    };
    const std::int64_t small = boot_peak(64ull << 20);
    const std::int64_t large = boot_peak(1ull << 30);
    EXPECT_LT(large - small, 64 * 1024)
        << "boot heap peak: " << small << " B at 64 MiB, " << large << " B at 1 GiB";
}

}  // namespace
}  // namespace hpcsec
