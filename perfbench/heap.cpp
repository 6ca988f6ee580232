// Whole-heap accounting for the benchmark binary: a replacement global
// operator new/delete (the tests/test_alloc.cpp pattern) that tracks live
// and peak bytes, so a node's footprint includes the MemoryMap hash maps
// and every other global-heap structure, not only its arena.
//
// Counters are per thread and unsynchronized: a node is built, run and torn
// down on one thread, and the workloads read them only on the thread that
// owns the node (paper_rows measures the heap at jobs 1 only). Sizes come
// from malloc_usable_size so operator delete needs no size argument.
#include <malloc.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "bench.h"

namespace {

thread_local std::int64_t t_live = 0;
thread_local std::int64_t t_peak = 0;

void* counted(void* p) {
    if (p == nullptr) throw std::bad_alloc();
    t_live += static_cast<std::int64_t>(malloc_usable_size(p));
    if (t_live > t_peak) t_peak = t_live;
    return p;
}

void release(void* p) noexcept {
    if (p == nullptr) return;
    t_live -= static_cast<std::int64_t>(malloc_usable_size(p));
    std::free(p);
}

void* aligned(std::size_t n, std::align_val_t a) {
    const auto align = static_cast<std::size_t>(a);
    return counted(std::aligned_alloc(align, (n + align - 1) & ~(align - 1)));
}

}  // namespace

namespace perfbench::heap {

std::int64_t live_bytes() { return t_live; }
std::int64_t peak_bytes() { return t_peak; }
void reset_peak() { t_peak = t_live; }

}  // namespace perfbench::heap

// Replacement global operators pair malloc/aligned_alloc with free, which
// is well-formed for replaced operators; GCC's static pairing check does
// not model replacement and misfires here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) { return counted(std::malloc(n != 0 ? n : 1)); }
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) { return aligned(n, a); }
void* operator new[](std::size_t n, std::align_val_t a) { return aligned(n, a); }
void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    release(p);
}

#pragma GCC diagnostic pop
