// Zero-alloc steady state (docs/PERFORMANCE.md): the dispatch hot loop and
// everything it reaches must not touch the global heap once a node is
// warmed up, and trial teardown must be an arena rewind rather than a
// unique_ptr graveyard. The counting global operator new below is the
// proof: it is armed only inside measurement windows, so gtest's own
// allocations never pollute the counts. It also tracks live bytes (sizes
// from malloc_usable_size) and their peak, for whole-heap footprints, and
// the bytes each allocation asked for.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "arch/page_table.h"
#include "arch/platform.h"
#include "check/check.h"
#include "core/harness.h"
#include "core/node.h"
#include "core/signature.h"
#include "crypto/sha256.h"
#include "hafnium/abi.h"
#include "hafnium/spm.h"
#include "kitten/guest.h"
#include "kitten/kitten.h"
#include "sim/arena.h"
#include "sim/engine.h"
#include "workloads/nas.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<bool> g_counting{false};
/// Bytes allocated minus bytes freed inside the window, and its peak.
std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};
/// Sum of the sizes the allocations inside the window asked for.
std::atomic<std::uint64_t> g_requested{0};

void* counted(void* p, std::size_t requested) {
    if (p == nullptr) throw std::bad_alloc();
    if (g_counting.load(std::memory_order_relaxed)) {
        g_allocs.fetch_add(1, std::memory_order_relaxed);
        g_requested.fetch_add(requested, std::memory_order_relaxed);
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

void start_counting() {
    g_allocs.store(0, std::memory_order_relaxed);
    g_live.store(0, std::memory_order_relaxed);
    g_peak.store(0, std::memory_order_relaxed);
    g_requested.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
}

void stop_counting() { g_counting.store(false, std::memory_order_relaxed); }

struct CountingWindow {
    CountingWindow() { start_counting(); }
    ~CountingWindow() { stop_counting(); }
    [[nodiscard]] static std::uint64_t count() {
        return g_allocs.load(std::memory_order_relaxed);
    }
    [[nodiscard]] static std::int64_t peak_bytes() {
        return g_peak.load(std::memory_order_relaxed);
    }
    [[nodiscard]] static std::int64_t live_bytes() {
        return g_live.load(std::memory_order_relaxed);
    }
    [[nodiscard]] static std::uint64_t requested_bytes() {
        return g_requested.load(std::memory_order_relaxed);
    }
};

}  // namespace

// Replacement global operators pair malloc/aligned_alloc with free, which
// is well-formed for replaced operators; GCC's static pairing check does
// not model replacement and misfires here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) { return counted(std::malloc(n ? n : 1), n); }
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
    return counted(std::aligned_alloc(static_cast<std::size_t>(a),
                                      (n + static_cast<std::size_t>(a) - 1) &
                                          ~(static_cast<std::size_t>(a) - 1)),
                   n);
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

    std::uint64_t allocs = 0;
    {
        CountingWindow window;
        for (int i = 1; i <= 100'000; ++i) rearm(1'000'000 + static_cast<sim::SimTime>(i));
        allocs = CountingWindow::count();
    }
    EXPECT_EQ(cancelled, 100'000);
    EXPECT_EQ(allocs, 0u) << "cancel/re-arm churn touched the global heap";
    EXPECT_EQ(eng.pending_events(), 2u);
    eng.run();
    EXPECT_EQ(fired, 2);
}

// The same churn on an engine deadline, the way GenericTimer and Executor
// re-arm: arm and disarm are writes to a key table sized at registration.
TEST(EventQueueAlloc, DeadlineArmDisarmChurnMakesZeroHeapAllocations) {
    sim::Engine eng;
    int fired = 0;
    eng.at(10, [&fired] { ++fired; });  // stays pending throughout
    const sim::DeadlineId far = eng.add_deadline([&fired] { ++fired; });
    eng.arm(far, 1'000'000, sim::kPrioDefault);

    std::uint64_t allocs = 0;
    {
        CountingWindow window;
        for (int i = 1; i <= 100'000; ++i) {
            eng.disarm(far);
            eng.arm(far, 1'000'000 + static_cast<sim::SimTime>(i), sim::kPrioDefault);
        }
        allocs = CountingWindow::count();
    }
    EXPECT_EQ(allocs, 0u) << "arm/disarm churn touched the global heap";
    EXPECT_EQ(eng.pending_events(), 2u);
    eng.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eng.now(), 1'100'000u);
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

// The Linux-primary twin: every 250 Hz tick on every core exits the compute
// VCPU, requeues its proxy in the primary's CFS runqueue and enters it again.
// Engine events open and close two equal windows inside one busy LU run; the
// first is warm-up, and the second must make no allocation however many
// exits it holds.
TEST(LinuxPrimaryAlloc, ExitRoundTripWindowMakesZeroHeapAllocations) {
    core::Node node(core::Harness::default_config(core::SchedulerKind::kLinuxPrimary, 17));
    node.boot();
    sim::Engine& eng = node.platform().engine();
    const hafnium::Spm& spm = *node.spm();
    const sim::SimTime start = eng.now() + eng.clock().from_seconds(0.5);
    const sim::Cycles window = eng.clock().from_seconds(2.0);

    std::uint64_t allocs[2] = {};
    std::uint64_t exits[2] = {};
    int closed = 0;
    const auto open = [&](int w) {
        exits[w] = spm.stats().vm_exits;
        start_counting();
    };
    const auto close = [&](int w) {
        stop_counting();
        allocs[w] = CountingWindow::count();
        exits[w] = spm.stats().vm_exits - exits[w];
        ++closed;
    };
    eng.at(start, [&] { open(0); });
    eng.at(start + window, [&] {
        close(0);
        open(1);
    });
    eng.at(start + 2 * window, [&] { close(1); });

    wl::ParallelWorkload lu(wl::nas_lu_spec(4));
    (void)node.run_workload(lu);
    stop_counting();
    ASSERT_EQ(closed, 2) << "LU finished before the second window closed";

    EXPECT_GE(exits[1], 1000u) << "window too quiet to prove anything";
    EXPECT_EQ(allocs[1], 0u) << "the exit round trip touched the global heap: "
                             << allocs[1] << " allocations over " << exits[1]
                             << " VM exits (warm-up window: " << allocs[0]
                             << " over " << exits[0] << ")";
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

// A strict auditor re-walks a stage-2 table only when its generation moved,
// keeps its scratch vectors, and reconciles gauges by handle, so auditing a
// node whose tables do not change touches no heap (the parent made 20
// allocations per audited call here).
TEST(AuditAlloc, StrictAuditOfAnUnchangedNodeMakesNoHeapAllocation) {
    core::NodeConfig cfg =
        core::Harness::default_config(core::SchedulerKind::kKittenPrimary, 17);
    cfg.check_mode = check::Mode::kStrict;
    core::Node node(std::move(cfg));
    node.boot();
    ASSERT_NE(node.auditor(), nullptr);
    hafnium::Spm& spm = *node.spm();
    const auto get_info = [&spm] {
        return spm.hypercall(0, arch::kPrimaryVmId, hafnium::Call::kVmGetInfo,
                             {2, 0, 0, 0});
    };
    ASSERT_TRUE(get_info().ok());  // warm-up: the first audit walks every table
    const std::uint64_t audits = node.auditor()->audits();

    std::uint64_t allocs = 0;
    {
        CountingWindow window;
        for (int i = 0; i < 1000; ++i) (void)get_info();
        allocs = CountingWindow::count();
    }
    EXPECT_EQ(node.auditor()->audits() - audits, 1000u);
    EXPECT_EQ(allocs, 0u) << "1000 audited calls on an unchanged node made " << allocs
                          << " allocations";
}

/// Counts the heap allocations of the Stage::kAudit interceptors' after()
/// hooks. after() runs innermost stage first, so a hook at kChaos opens the
/// window just before the auditor's and one at kMetrics closes it just
/// after.
class AuditWindow {
public:
    explicit AuditWindow(hafnium::Spm& spm) : spm_(&spm) {
        spm.attach_interceptor(&open_);
        spm.attach_interceptor(&close_);
    }
    ~AuditWindow() {
        spm_->detach_interceptor(&open_);
        spm_->detach_interceptor(&close_);
    }
    AuditWindow(const AuditWindow&) = delete;
    AuditWindow& operator=(const AuditWindow&) = delete;

    [[nodiscard]] std::uint64_t allocations() const { return close_.total; }

private:
    struct Open final : hafnium::HypercallInterceptor {
        Open() : HypercallInterceptor(Stage::kChaos) {}
        void after(const hafnium::HypercallSite&, const hafnium::HfResult&) override {
            start_counting();
        }
    };
    struct Close final : hafnium::HypercallInterceptor {
        Close() : HypercallInterceptor(Stage::kMetrics) {}
        void after(const hafnium::HypercallSite&, const hafnium::HfResult&) override {
            stop_counting();
            total += CountingWindow::count();
        }
        std::uint64_t total = 0;
    };

    hafnium::Spm* spm_;
    Open open_;
    Close close_;
};

// Lend/reclaim churn changes both VMs' tables and the grant list on every
// call, so each strict audit takes the incremental path: it marks the PAs
// that changed, re-indexes the pieces there and re-checks what they touch.
// Once the churn has warmed the auditor's scratch vectors to their largest
// size, that path allocates nothing.
TEST(AuditAlloc, StrictAuditAfterWarmLendReclaimChurnMakesNoHeapAllocation) {
    arch::Platform platform(arch::PlatformConfig::pine_a64());
    hafnium::VmSpec primary;
    primary.name = "primary";
    primary.role = hafnium::VmRole::kPrimary;
    primary.mem_bytes = 64ull << 20;
    primary.vcpu_count = 4;
    primary.image = {1};
    hafnium::VmSpec compute = primary;
    compute.name = "compute";
    compute.role = hafnium::VmRole::kSecondary;
    compute.image = {2};
    hafnium::Manifest manifest;
    manifest.vms = {primary, compute};
    hafnium::Spm spm(platform, std::move(manifest));
    spm.boot();
    check::Auditor auditor(spm, {check::Mode::kStrict});

    constexpr arch::VmId kPrimary = 1;
    constexpr arch::VmId kCompute = 2;
    constexpr std::uint64_t kBlock = 2ull << 20;
    constexpr arch::IpaAddr kWindow = 0x80'0000'0000ull;  // above every RAM window
    constexpr std::uint64_t kLends = 8;
    // Each round lends one or two pages out of eight of compute's 2 MiB
    // blocks to the primary, then reclaims them.
    const auto churn = [&spm](int rounds) {
        bool ok = true;
        for (int r = 0; r < rounds; ++r) {
            for (std::uint64_t i = 0; i < kLends; ++i) {
                ok &= hf::mem_lend(spm, 0, kCompute, kPrimary,
                                   (2 * i + 1) * kBlock + 3 * arch::kPageSize, 1 + i % 2,
                                   kWindow + i * kBlock)
                          .ok();
            }
            for (std::uint64_t i = 0; i < kLends; ++i) {
                ok &= hf::mem_reclaim(spm, 0, kCompute, kPrimary,
                                      (2 * i + 1) * kBlock + 3 * arch::kPageSize)
                          .ok();
            }
        }
        return ok;
    };
    ASSERT_TRUE(churn(2));  // warm-up
    const std::uint64_t audits = auditor.audits();
    const std::uint64_t full_scans = auditor.full_scans();

    std::uint64_t allocs = 0;
    {
        AuditWindow window(spm);
        ASSERT_TRUE(churn(8));
        allocs = window.allocations();
    }
    EXPECT_EQ(auditor.audits() - audits, 8 * 2 * kLends);
    EXPECT_EQ(auditor.full_scans(), full_scans) << "an audit fell back to a full scan";
    EXPECT_EQ(allocs, 0u) << 8 * 2 * kLends << " audits after lend/reclaim churn made "
                          << allocs << " allocations";
}

// The Kitten run queues are vectors, so a queue allocates nothing until a
// thread joins it. A 4-core kernel makes four blocks: its queue array, its
// current-thread array, and its buddy heap's free-list array and first free
// block. A 4-VCPU guest makes three: its queue array and the SPM's guest-table
// node and buckets. With a std::deque per queue, the same construction made
// 18 more allocations, 16 of them still live.
TEST(WholeHeap, EmptyKittenQueuesAllocateNothing) {
    arch::Platform platform(arch::PlatformConfig::pine_a64());
    ASSERT_EQ(platform.ncores(), 4);
    hafnium::VmSpec primary;
    primary.name = "primary";
    primary.role = hafnium::VmRole::kPrimary;
    primary.mem_bytes = 64ull << 20;
    primary.vcpu_count = 4;
    primary.image = {1};
    hafnium::VmSpec guest = primary;
    guest.name = "guest";
    guest.role = hafnium::VmRole::kSecondary;
    guest.image = {2};
    hafnium::Manifest manifest;
    manifest.vms = {primary, guest};
    hafnium::Spm spm(platform, std::move(manifest));
    spm.boot();
    hafnium::Vm& guest_vm = *spm.find_vm("guest");
    ASSERT_EQ(guest_vm.vcpu_count(), 4);

    std::optional<kitten::KittenKernel> kernel;
    std::optional<kitten::KittenGuestOs> guest_os;
    std::uint64_t kernel_allocs = 0;
    std::uint64_t guest_allocs = 0;
    {
        CountingWindow window;
        kernel.emplace(platform, spm, kitten::KittenConfig{});
        kernel_allocs = CountingWindow::count();
        guest_os.emplace(spm, guest_vm);
        guest_allocs = CountingWindow::count() - kernel_allocs;
    }
    EXPECT_EQ(kernel_allocs, 4u);
    EXPECT_EQ(guest_allocs, 3u);
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

// A stage-2 table is one array of descriptors: a table descriptor carries
// its next-level table, so no table keeps a second array of child pointers
// beside its descriptors (the parent made 11 allocations, 28,952 B, here).
TEST(WholeHeap, EachStage2TableIsOneAllocation) {
    constexpr std::uint64_t kTableBytes = 512 * sizeof(std::uint64_t);
    std::optional<arch::PageTable> pt;
    CountingWindow window;
    pt.emplace(arch::PtFormat::armv8_4k());
    const std::int64_t root_bytes = CountingWindow::live_bytes();
    // Root, level 1, a level-2 table of 32 blocks, and the level-3 table
    // that the one-page unmap splits out of a block.
    pt->map(0, 0x4000'0000, 64ull << 20, arch::kPermRWX);
    pt->unmap(5 * arch::kPageSize, arch::kPageSize);
    EXPECT_EQ(pt->node_count(), 4u);
    EXPECT_EQ(CountingWindow::count(), 4u);
    EXPECT_EQ(CountingWindow::requested_bytes(), 4 * kTableBytes);
    EXPECT_EQ(CountingWindow::live_bytes(), 4 * root_bytes);

    // Move-assigning a fresh table frees every table of the old one.
    *pt = arch::PageTable(arch::PtFormat::armv8_4k());
    EXPECT_EQ(pt->node_count(), 1u);
    EXPECT_EQ(CountingWindow::live_bytes(), root_bytes);

    // A split and its fold free what the split allocated.
    pt->map(0, 0x4000'0000, 64ull << 20, arch::kPermRWX);
    const std::int64_t mapped_bytes = CountingWindow::live_bytes();
    const std::uint64_t nodes = pt->node_count();
    pt->protect(7 * arch::kPageSize, arch::kPageSize, arch::kPermR);
    EXPECT_EQ(pt->node_count(), nodes + 1);
    EXPECT_EQ(CountingWindow::live_bytes(), mapped_bytes + root_bytes);
    pt->protect(7 * arch::kPageSize, arch::kPageSize, arch::kPermRWX);
    EXPECT_EQ(pt->node_count(), nodes);
    EXPECT_EQ(CountingWindow::live_bytes(), mapped_bytes);

    pt.reset();
    EXPECT_EQ(CountingWindow::live_bytes(), 0);
}

// Boot hashes each boot-stage image as it is made and moves each partition
// image into its Vm, so no image copy is alive at the boot peak. The live
// total counts the platform arena's first 64 KiB chunk.
TEST(WholeHeap, BootKeepsNoTransientImageAtItsPeak) {
    core::NodeConfig cfg = core::Harness::default_config(
        core::SchedulerKind::kKittenPrimary, 21);
    cfg.compute_mem_bytes = 64ull << 20;
    core::Node node(std::move(cfg));
    std::int64_t live = 0;
    std::int64_t peak = 0;
    {
        CountingWindow window;
        node.boot();
        live = CountingWindow::live_bytes();
        peak = CountingWindow::peak_bytes();
    }
    EXPECT_LT(peak - live, 4 * 1024) << "boot peak " << peak << " B, live after boot "
                                     << live << " B";
    EXPECT_LE(live, 125'000);
}

// The SPM consumes its manifest at boot: every partition's image lives on in
// its Vm, the copy restart_vm re-verifies, and measures as it did.
TEST(WholeHeap, BootMovesEveryImageIntoItsVm) {
    core::NodeConfig cfg = core::Harness::default_config(
        core::SchedulerKind::kKittenPrimary, 21);
    cfg.with_super_secondary = true;
    core::Node node(std::move(cfg));
    node.boot();
    const hafnium::Spm& spm = *node.spm();
    const std::pair<const char*, const char*> images[] = {
        {"kitten-primary", "kitten-primary"},
        {"login", "linux-login"},
        {"compute", "kitten-guest"},
    };
    ASSERT_EQ(node.spm()->vm_count(), 3);
    ASSERT_EQ(spm.measurements().size(), 3u);
    for (const auto& [vm_name, image_name] : images) {
        SCOPED_TRACE(vm_name);
        const hafnium::Vm* vm = node.spm()->find_vm(vm_name);
        ASSERT_NE(vm, nullptr);
        const std::vector<std::uint8_t> image = core::Node::make_image(image_name);
        EXPECT_EQ(vm->spec().image, image);
        const auto& [measured_name, digest] = spm.measurements()[vm->id() - 1];
        EXPECT_EQ(measured_name, vm_name);
        EXPECT_TRUE(crypto::digest_equal(
            digest, crypto::Sha256::hash(std::span<const std::uint8_t>(image))));
    }
}

}  // namespace
}  // namespace hpcsec
