#include "hafnium/manifest.h"

#include <set>

namespace hpcsec::hafnium {

std::string to_string(VmRole role) {
    switch (role) {
        case VmRole::kPrimary: return "primary";
        case VmRole::kSuperSecondary: return "super-secondary";
        case VmRole::kSecondary: return "secondary";
    }
    return "?";
}

std::vector<std::string> Manifest::problems() const {
    std::vector<std::string> problems;
    int primaries = 0;
    int supers = 0;
    std::set<std::string> names;
    for (const auto& vm : vms) {
        if (vm.name.empty()) problems.push_back("VM with empty name");
        if (!names.insert(vm.name).second) {
            problems.push_back("duplicate VM name: " + vm.name);
        }
        if (vm.role == VmRole::kPrimary) ++primaries;
        if (vm.role == VmRole::kSuperSecondary) ++supers;
        if (vm.mem_bytes == 0 || (vm.mem_bytes & arch::kPageMask) != 0) {
            problems.push_back(vm.name + ": memory size must be non-zero pages");
        }
        if (vm.vcpu_count <= 0) {
            problems.push_back(vm.name + ": needs at least one VCPU");
        }
        if (vm.role == VmRole::kSecondary && !vm.devices.empty()) {
            problems.push_back(vm.name + ": secondaries cannot own devices");
        }
        if (vm.role == VmRole::kPrimary && vm.world == arch::World::kSecure) {
            problems.push_back(vm.name + ": the primary VM must be non-secure");
        }
    }
    if (primaries != 1) problems.push_back("manifest needs exactly one primary VM");
    if (supers > 1) problems.push_back("at most one super-secondary VM allowed");
    return problems;
}

const VmSpec* Manifest::primary() const {
    for (const auto& vm : vms) {
        if (vm.role == VmRole::kPrimary) return &vm;
    }
    return nullptr;
}

const VmSpec* Manifest::super_secondary() const {
    for (const auto& vm : vms) {
        if (vm.role == VmRole::kSuperSecondary) return &vm;
    }
    return nullptr;
}

}  // namespace hpcsec::hafnium
