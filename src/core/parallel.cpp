#include "core/parallel.h"

namespace hpcsec::core {

int resolve_jobs(int jobs) {
    if (jobs > 0) return jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace hpcsec::core
