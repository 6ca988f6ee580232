#include "arch/types.h"

namespace hpcsec::arch {

std::string to_string(FaultKind k) {
    switch (k) {
        case FaultKind::kNone: return "none";
        case FaultKind::kTranslation: return "translation";
        case FaultKind::kSecurity: return "security";
        case FaultKind::kAddressSize: return "address-size";
    }
    return "?";
}

std::string to_string(El el) {
    switch (el) {
        case El::kEl0: return "EL0";
        case El::kEl1: return "EL1";
        case El::kEl2: return "EL2";
        case El::kEl3: return "EL3";
    }
    return "?";
}

std::string to_string(World w) {
    return w == World::kSecure ? "secure" : "non-secure";
}

}  // namespace hpcsec::arch
