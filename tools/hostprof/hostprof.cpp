// hostprof: a preloadable host-time sampler.
//
//   LD_PRELOAD=build/tools/hostprof/libhostprof.so HOSTPROF_OUT=prof.txt PROGRAM ...
//   python3 tools/prof_layers.py prof.txt
//
// On load it arms ITIMER_PROF, which counts the CPU time of every thread of
// the process. On each expiry the kernel sends SIGPROF to a thread that is
// running, and the handler records the PC that the signal interrupted. The
// kernel charges CPU time, and so expires the timer, at its tick: with a
// 250 Hz tick that is one sample per 4 ms of CPU, though the timer asks for
// one per millisecond. At exit the sampler writes the executable segments
// of every loaded object (so PCs map back to symbols from each file's own
// symbol table) and the PCs. Nothing in the profiled program changes.
//
// Environment:
//   HOSTPROF_OUT  output file; "%p" is replaced by the pid
//                 (default: hostprof.%p.txt)
//
// Output, one record per line:
//   hostprof 1
//   samples N | dropped N
//   seg START END BIAS PATH   (hex; PC - BIAS is the address in PATH)
//   pc PC                     (hex, in sample order)

#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

constexpr std::size_t kMaxSamples = std::size_t{1} << 18;  // 2 MiB of PCs
constexpr long kIntervalUs = 1000;

std::uintptr_t g_pcs[kMaxSamples];
std::atomic<std::size_t> g_taken{0};
bool g_armed = false;

std::uintptr_t interrupted_pc(const void* context) {
    const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
    return static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
    return static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
    (void)uc;
    return 0;  // no PC decoding for this ISA: every sample reads as unknown
#endif
}

void on_sigprof(int /*sig*/, siginfo_t* /*info*/, void* context) {
    const int saved_errno = errno;
    const std::size_t slot = g_taken.fetch_add(1, std::memory_order_relaxed);
    if (slot < kMaxSamples) g_pcs[slot] = interrupted_pc(context);
    errno = saved_errno;
}

std::string output_path() {
    const char* env = std::getenv("HOSTPROF_OUT");
    std::string path = env != nullptr && *env != '\0' ? env : "hostprof.%p.txt";
    const std::string::size_type at = path.find("%p");
    if (at != std::string::npos) path.replace(at, 2, std::to_string(getpid()));
    return path;
}

std::string executable_path() {
    char buf[4096];
    const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
    return n > 0 ? std::string(buf, static_cast<std::size_t>(n)) : std::string("?");
}

int write_segments(dl_phdr_info* info, std::size_t /*size*/, void* out) {
    const std::string path = info->dlpi_name != nullptr && info->dlpi_name[0] != '\0'
                                 ? std::string(info->dlpi_name)
                                 : executable_path();
    for (int i = 0; i < info->dlpi_phnum; ++i) {
        const ElfW(Phdr)& ph = info->dlpi_phdr[i];
        if (ph.p_type != PT_LOAD || (ph.p_flags & PF_X) == 0) continue;
        const std::uintptr_t start = info->dlpi_addr + ph.p_vaddr;
        std::fprintf(static_cast<std::FILE*>(out), "seg %zx %zx %zx %s\n",
                     static_cast<std::size_t>(start),
                     static_cast<std::size_t>(start + ph.p_memsz),
                     static_cast<std::size_t>(info->dlpi_addr), path.c_str());
    }
    return 0;
}

__attribute__((constructor)) void hostprof_start() {
    struct sigaction sa {};
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, nullptr) != 0) return;
    itimerval timer{};
    timer.it_interval.tv_usec = kIntervalUs;
    timer.it_value = timer.it_interval;
    g_armed = setitimer(ITIMER_PROF, &timer, nullptr) == 0;
}

__attribute__((destructor)) void hostprof_stop() {
    if (!g_armed) return;
    const itimerval off{};
    setitimer(ITIMER_PROF, &off, nullptr);
    const std::size_t taken = g_taken.load();
    const std::size_t kept = taken < kMaxSamples ? taken : kMaxSamples;
    const std::string path = output_path();
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "hostprof: cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(out, "hostprof 1\nsamples %zu\ndropped %zu\n", kept, taken - kept);
    dl_iterate_phdr(write_segments, out);
    for (std::size_t i = 0; i < kept; ++i) {
        std::fprintf(out, "pc %zx\n", static_cast<std::size_t>(g_pcs[i]));
    }
    std::fclose(out);
}

}  // namespace
