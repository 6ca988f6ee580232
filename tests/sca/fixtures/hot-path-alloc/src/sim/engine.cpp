#include <map>
#include <memory>
#include <vector>

struct Timer {
    void fire();
    std::vector<int> pending_;
};

struct Engine {
    void dispatch_one();
    void drain();
    void reindex();
    std::vector<int> log_;
    std::vector<int> slab_;
    std::vector<int> index_;
    std::map<int, int> by_key_;
};

// Reached only via the hot_path_extra_edges std::function seam.
void Timer::fire() {
    pending_.push_back(1);  // finding: heap growth on the tick path
}

void Engine::dispatch_one() {
    log_.emplace_back(7);  // finding: heap growth in the dispatch loop
    drain();
    reindex();
}

void Engine::drain() {
    // sca-suppress(hot-path-alloc): slab freelist, warmed after boot
    slab_.push_back(3);
    int* scratch = new int[4];  // finding: non-placement new
    delete[] scratch;
}

// Every growing container call, not only the push_back family.
void Engine::reindex() {
    index_.insert(index_.begin(), 1);  // finding: a front insert may grow
    by_key_.emplace(1, 2);             // finding: a node allocation
    index_.resize(8);                  // finding: heap growth
    index_.assign(4, 0);               // finding: heap growth
    // sca-suppress(hot-path-alloc): bounded, warmed before steady state
    slab_.insert(slab_.end(), 5);
}

// Not reachable from any entry point: no finding even though it allocates.
void cold_report() {
    auto buf = std::make_unique<int[]>(64);
    (void)buf;
    std::vector<int> rows;
    rows.resize(64);
}
