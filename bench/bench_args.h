// Shared argv handling for the bench binaries: every sweep accepts
// `--jobs N` (N = threads for fanning independent runs through
// core::parallel_for; 0 = one per hardware thread, 1 = the same path on the
// calling thread). The flag is extracted in place so each bench's
// positional arguments keep their indices.
#pragma once

#include <cstdlib>
#include <cstring>

namespace hpcsec::benchargs {

inline int parse_jobs(int& argc, char** argv, int def = 1) {
    int jobs = def;
    int w = 1;
    for (int r = 1; r < argc; ++r) {
        if (std::strcmp(argv[r], "--jobs") == 0 && r + 1 < argc) {
            jobs = std::atoi(argv[++r]);
        } else if (std::strncmp(argv[r], "--jobs=", 7) == 0) {
            jobs = std::atoi(argv[r] + 7);
        } else {
            argv[w++] = argv[r];
        }
    }
    argc = w;
    return jobs;
}

}  // namespace hpcsec::benchargs
