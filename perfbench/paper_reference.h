// The paper's reference results (Lange et al., SC'21), Fig. 8 and Fig. 10
// raw means, as data. Figs. 7 and 9 plot these normalized to Native.
#pragma once

#include <array>
#include <string_view>

namespace perfbench {

struct PaperRow {
    std::string_view workload;  ///< wl::WorkloadSpec::name
    double native;
    double kitten;
    double linux_primary;
};

inline constexpr std::array<PaperRow, 8> kPaperRows = {{
    // Fig. 8: GFlops, MB/s, GUP/s.
    {"HPCG", 0.0018, 0.0019, 0.0018},
    {"Stream", 59.6, 59.8, 60.2},
    {"RandomAccess", 6.5e-5, 6.2e-5, 6.04e-5},
    // Fig. 10: Mop/s.
    {"LU", 33.16, 33.116, 32.06},
    {"BT", 34.214, 34.2, 34.142},
    {"CG", 4.38, 4.38, 4.37},
    {"EP", 0.77, 0.77, 0.77},
    {"SP", 15.084, 15.08, 15.1},
}};

}  // namespace perfbench
