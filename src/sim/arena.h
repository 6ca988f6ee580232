// Bump/arena allocator family for zero-alloc steady state.
//
// A trial's long-lived simulation objects (VMs, VCPUs, cores, grants) are
// carved out of one Arena owned by the platform. Teardown is then an O(1)
// rewind — run the registered destructors and reset the bump pointers —
// instead of a unique_ptr graveyard walking thousands of individual frees.
// Chunks are retained across reset(), so a harness that reuses one arena
// across trials touches the global heap only while the first trial warms
// the chunk list up.
//
// Not thread-safe by design: one arena belongs to one trial, and the
// parallel experiment engine gives every trial a private node (the same
// ownership rule that makes jobs=1 ≡ jobs=N bit-identical).
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace hpcsec::sim {

class Arena {
public:
    /// Chunks grow geometrically from `first_chunk_bytes` up to
    /// `max_chunk_bytes`; oversized single allocations get a chunk of
    /// their own.
    explicit Arena(std::size_t first_chunk_bytes = 64 * 1024,
                   std::size_t max_chunk_bytes = 4 * 1024 * 1024)
        : next_chunk_bytes_(first_chunk_bytes),
          max_chunk_bytes_(max_chunk_bytes) {}

    Arena(const Arena&) = delete;
    Arena& operator=(const Arena&) = delete;
    ~Arena() { reset(); }

    /// Raw bump allocation. Alignment must be a power of two.
    void* allocate(std::size_t bytes, std::size_t align) {
        if (active_ < chunks_.size()) {
            Chunk& c = chunks_[active_];
            const std::size_t aligned = align_up(c.used, align);
            if (aligned + bytes <= c.cap) {
                c.used = aligned + bytes;
                return c.mem.get() + aligned;
            }
        }
        return allocate_slow(bytes, align);
    }

    /// Construct a T in the arena. Non-trivially-destructible types get a
    /// destructor record (itself arena-allocated) so reset() can run them
    /// in reverse construction order.
    template <typename T, typename... Args>
    T* make(Args&&... args) {
        T* obj = static_cast<T*>(allocate(sizeof(T), alignof(T)));
        new (obj) T(std::forward<Args>(args)...);
        if constexpr (!std::is_trivially_destructible_v<T>) {
            register_destructor(obj);
        }
        return obj;
    }

    /// Uninitialized storage for `n` contiguous T. The caller placement-news
    /// each element (useful for non-movable types with per-index ctor args)
    /// and registers destructors as it goes.
    template <typename T>
    [[nodiscard]] T* allocate_array(std::size_t n) {
        return static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
    }

    /// Enroll an already-constructed arena object for destruction at
    /// reset(). Pair with allocate_array + placement new.
    template <typename T>
    void register_destructor(T* obj) {
        auto* rec = static_cast<DtorRec*>(allocate(sizeof(DtorRec), alignof(DtorRec)));
        rec->fn = [](void* p) { static_cast<T*>(p)->~T(); };
        rec->obj = obj;
        rec->next = dtors_;
        dtors_ = rec;
    }

    /// Run registered destructors (reverse construction order) and rewind
    /// every chunk. Chunk memory is retained for reuse — after the first
    /// trial warms the arena, reset + rebuild performs no heap traffic.
    void reset() {
        for (DtorRec* rec = dtors_; rec != nullptr; rec = rec->next) {
            rec->fn(rec->obj);
        }
        dtors_ = nullptr;
        for (Chunk& c : chunks_) c.used = 0;
        active_ = 0;
    }

    /// Live bytes across all chunks (current high-water of this cycle).
    [[nodiscard]] std::size_t bytes_used() const {
        std::size_t total = 0;
        for (const Chunk& c : chunks_) total += c.used;
        return total;
    }
    /// Bytes reserved from the heap (survives reset()).
    [[nodiscard]] std::size_t bytes_reserved() const {
        std::size_t total = 0;
        for (const Chunk& c : chunks_) total += c.cap;
        return total;
    }
    [[nodiscard]] std::size_t chunk_count() const { return chunks_.size(); }

private:
    struct Chunk {
        std::unique_ptr<std::byte[]> mem;
        std::size_t cap = 0;
        std::size_t used = 0;
    };
    struct DtorRec {
        void (*fn)(void*);
        void* obj;
        DtorRec* next;
    };

    static constexpr std::size_t align_up(std::size_t v, std::size_t a) {
        return (v + a - 1) & ~(a - 1);
    }

    void* allocate_slow(std::size_t bytes, std::size_t align) {
        // Chunk bases come from operator new[] and are aligned to the
        // default new alignment, so aligning *offsets* suffices for every
        // type the simulator allocates (align <= 16).
        // Advance through retained chunks first (post-reset reuse), then
        // grow. A request larger than the growth cap gets a bespoke chunk.
        while (++active_ < chunks_.size()) {
            Chunk& c = chunks_[active_];
            if (bytes <= c.cap) {
                c.used = bytes;
                return c.mem.get();
            }
        }
        std::size_t cap = next_chunk_bytes_;
        if (cap < bytes + align) cap = bytes + align;
        next_chunk_bytes_ = std::min(next_chunk_bytes_ * 2, max_chunk_bytes_);
        Chunk c;
        c.mem = std::make_unique<std::byte[]>(cap);
        c.cap = cap;
        c.used = bytes;
        chunks_.push_back(std::move(c));
        active_ = chunks_.size() - 1;
        return chunks_.back().mem.get();
    }

    std::vector<Chunk> chunks_;
    std::size_t active_ = 0;
    std::size_t next_chunk_bytes_;
    std::size_t max_chunk_bytes_;
    DtorRec* dtors_ = nullptr;
};

/// STL-compatible allocator over an Arena: deallocate is a no-op (space
/// comes back at reset()). Lets hot containers (grant lists, interceptor
/// frames) live in the per-trial arena without changing their call sites.
template <typename T>
class ArenaAllocator {
public:
    using value_type = T;

    explicit ArenaAllocator(Arena& arena) : arena_(&arena) {}
    template <typename U>
    ArenaAllocator(const ArenaAllocator<U>& other) : arena_(other.arena()) {}

    T* allocate(std::size_t n) {
        return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
    }
    void deallocate(T*, std::size_t) {}  // arena memory frees at reset()

    [[nodiscard]] Arena* arena() const { return arena_; }

    template <typename U>
    bool operator==(const ArenaAllocator<U>& other) const {
        return arena_ == other.arena();
    }

private:
    Arena* arena_;
};

}  // namespace hpcsec::sim
