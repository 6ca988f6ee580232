// Host-side fan-out of embarrassingly parallel trials across threads.
//
// The simulator itself stays single-threaded and deterministic: one trial =
// one private sim::Engine/Node owned entirely by the thread that runs it.
// Parallelism lives strictly *between* trials — parallel_for hands out
// indices and the caller merges results in index order, so aggregate output
// is bit-identical for every jobs value.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

namespace hpcsec::core {

/// `jobs` as a thread count: jobs <= 0 means one per hardware thread
/// (std::thread::hardware_concurrency(), never less than 1).
int resolve_jobs(int jobs);

/// Run fn(i) for every i in [0, n) and return once all calls have finished.
///
/// When min(resolve_jobs(jobs), n) is 1 the calls run in index order on the
/// calling thread, and the first exception propagates at once, as from a
/// plain loop. Otherwise that many threads claim indices from a shared
/// counter while the caller waits; every index runs, and the exception of
/// the lowest index that threw is rethrown after the join, where the plain
/// loop would have thrown first. fn must be safe to call concurrently for
/// distinct indices.
template <class Fn>
void parallel_for(int jobs, std::size_t n, Fn&& fn) {
    const std::size_t nthreads =
        std::min(static_cast<std::size_t>(resolve_jobs(jobs)), n);
    if (nthreads <= 1) {
        for (std::size_t i = 0; i < n; ++i) fn(i);
        return;
    }
    std::vector<std::exception_ptr> errors(n);
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (std::size_t i = next++; i < n; i = next++) {
            try {
                fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };
    std::vector<std::thread> threads;
    threads.reserve(nthreads);
    try {
        while (threads.size() < nthreads) threads.emplace_back(worker);
    } catch (...) {
        // Out of threads: those already started claim every index.
        if (threads.empty()) throw;
    }
    for (auto& t : threads) t.join();
    for (auto& e : errors) {
        if (e) std::rethrow_exception(e);
    }
}

}  // namespace hpcsec::core
