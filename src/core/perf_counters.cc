#include "core/perf_counters.hh"

#include <atomic>
#include <cstring>
#include <string>
#include <vector>

#include "core/metrics.hh"

#if defined(__linux__)
#define HDHAM_PERF_LINUX 1
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#else
#define HDHAM_PERF_LINUX 0
#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#define HDHAM_PERF_HAVE_RUSAGE 1
#else
#define HDHAM_PERF_HAVE_RUSAGE 0
#endif
#endif

namespace hdham::perf
{

namespace
{

constexpr const char *kCounterNames[kCounterCount] = {
    "cycles",        "instructions", "llc_misses",
    "l1d_misses",    "branch_misses", "page_faults",
};

/** Live test switch: behave as if every open failed. */
std::atomic<bool> g_forceUnavailable{false};

#if HDHAM_PERF_LINUX

/** (type, config) of each CounterId. */
struct EventSpec
{
    std::uint32_t type;
    std::uint64_t config;
};

constexpr EventSpec kEvents[kCounterCount] = {
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES},
    {PERF_TYPE_HW_CACHE,
     PERF_COUNT_HW_CACHE_L1D | (PERF_COUNT_HW_CACHE_OP_READ << 8) |
         (PERF_COUNT_HW_CACHE_RESULT_MISS << 16)},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES},
    {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_PAGE_FAULTS},
};

int
perfEventOpen(perf_event_attr *attr, pid_t pid, int cpu, int groupFd,
              unsigned long flags)
{
    return static_cast<int>(
        syscall(SYS_perf_event_open, attr, pid, cpu, groupFd, flags));
}

/**
 * Open counter @p id for the calling thread (any CPU). Tries an
 * unrestricted count first; under perf_event_paranoid lockdowns that
 * returns EACCES/EPERM, so retry excluding kernel and hypervisor --
 * user-space counts are exactly what the scan analysis wants anyway.
 * Returns -1 when the event does not exist on this host (common in
 * VMs with no PMU).
 */
int
openCounter(std::size_t id, bool inherit)
{
    if (g_forceUnavailable.load(std::memory_order_relaxed))
        return -1;
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof attr);
    attr.size = sizeof attr;
    attr.type = kEvents[id].type;
    attr.config = kEvents[id].config;
    attr.disabled = 0;
    attr.inherit = inherit ? 1 : 0;
    int fd = perfEventOpen(&attr, 0, -1, -1, 0);
    if (fd < 0 && (errno == EACCES || errno == EPERM)) {
        attr.exclude_kernel = 1;
        attr.exclude_hv = 1;
        fd = perfEventOpen(&attr, 0, -1, -1, 0);
    }
    return fd;
}

/**
 * Which counters this host can open at all, probed once. A VM often
 * refuses hardware events (no PMU) while software events work, so
 * availability is a per-counter mask, not one bit.
 */
std::uint32_t
openableMask()
{
    static const std::uint32_t mask = [] {
        std::uint32_t m = 0;
        for (std::size_t id = 0; id < kCounterCount; ++id) {
            const int fd = openCounter(id, false);
            if (fd >= 0) {
                m |= 1u << id;
                close(fd);
            }
        }
        return m;
    }();
    return mask;
}

std::int64_t
readCounter(int fd)
{
    if (fd < 0)
        return kUnavailable;
    std::uint64_t value = 0;
    if (read(fd, &value, sizeof value) != sizeof value)
        return kUnavailable;
    return static_cast<std::int64_t>(value);
}

/** Lazily opened thread-scoped counters, closed with the thread. */
struct ThreadCounters
{
    std::array<int, kCounterCount> fds;
    bool opened = false;

    ThreadCounters() { fds.fill(-1); }

    ~ThreadCounters()
    {
        for (int fd : fds)
            if (fd >= 0)
                close(fd);
    }
};

thread_local ThreadCounters tlCounters;

/** VmRSS / VmHWM from /proc/self/status, in bytes. */
MemoryStats
readProcStatus()
{
    MemoryStats stats;
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return stats;
    char line[256];
    while (std::fgets(line, sizeof line, f)) {
        long long kb = 0;
        if (std::sscanf(line, "VmRSS: %lld kB", &kb) == 1)
            stats.rssBytes = static_cast<std::int64_t>(kb) * 1024;
        else if (std::sscanf(line, "VmHWM: %lld kB", &kb) == 1)
            stats.peakRssBytes = static_cast<std::int64_t>(kb) * 1024;
    }
    std::fclose(f);
    return stats;
}

#endif // HDHAM_PERF_LINUX

} // namespace

const char *
counterName(std::size_t id)
{
    return id < kCounterCount ? kCounterNames[id] : "unknown";
}

Sample
delta(const Sample &before, const Sample &after)
{
    Sample d;
    for (std::size_t i = 0; i < kCounterCount; ++i) {
        if (before.v[i] >= 0 && after.v[i] >= 0)
            d.v[i] = after.v[i] - before.v[i];
    }
    return d;
}

const char *
statusName(Status s)
{
    switch (s) {
    case Status::On:
        return "on";
    case Status::Unavailable:
    default:
        return "unavailable";
    }
}

Status
status()
{
    if (g_forceUnavailable.load(std::memory_order_relaxed))
        return Status::Unavailable;
#if HDHAM_PERF_LINUX
    return openableMask() != 0 ? Status::On : Status::Unavailable;
#else
    return Status::Unavailable;
#endif
}

Sample
threadSample()
{
#if HDHAM_PERF_LINUX
    if (status() != Status::On)
        return Sample{};
    ThreadCounters &tc = tlCounters;
    if (!tc.opened) {
        const std::uint32_t mask = openableMask();
        for (std::size_t id = 0; id < kCounterCount; ++id)
            if (mask & (1u << id))
                tc.fds[id] = openCounter(id, false);
        tc.opened = true;
    }
    Sample s;
    for (std::size_t id = 0; id < kCounterCount; ++id)
        s.v[id] = readCounter(tc.fds[id]);
    return s;
#else
    return Sample{};
#endif
}

ProcessCounters::ProcessCounters()
{
    fds.fill(-1);
#if HDHAM_PERF_LINUX
    if (status() == Status::On) {
        const std::uint32_t mask = openableMask();
        for (std::size_t id = 0; id < kCounterCount; ++id)
            if (mask & (1u << id))
                fds[id] = openCounter(id, true);
    }
#endif
    begin = read();
}

ProcessCounters::~ProcessCounters()
{
#if HDHAM_PERF_LINUX
    for (int fd : fds)
        if (fd >= 0)
            close(fd);
#endif
}

Sample
ProcessCounters::read() const
{
    Sample s;
#if HDHAM_PERF_LINUX
    if (status() != Status::On)
        return s;
    for (std::size_t id = 0; id < kCounterCount; ++id)
        s.v[id] = readCounter(fds[id]);
#endif
    return s;
}

Sample
ProcessCounters::delta() const
{
    return perf::delta(begin, read());
}

void
exportTo(metrics::Registry &registry, const Sample &measured,
         std::uint64_t rowsScanned)
{
    for (std::size_t id = 0; id < kCounterCount; ++id) {
        registry.setPerf(counterName(id),
                         static_cast<double>(measured.v[id]));
    }
    registry.setPerf("available", measured.anyAvailable() ? 1 : 0);
    const double rows = static_cast<double>(rowsScanned);
    if (measured.available(kCycles) && measured[kCycles] > 0 &&
        measured.available(kInstructions)) {
        registry.setPerf("ipc",
                         static_cast<double>(measured[kInstructions]) /
                             static_cast<double>(measured[kCycles]));
    }
    if (measured.available(kLlcMisses) && rowsScanned > 0) {
        registry.setPerf(
            "llc_miss_per_row",
            static_cast<double>(measured[kLlcMisses]) / rows);
    }
    if (measured.available(kL1dMisses) && rowsScanned > 0) {
        registry.setPerf(
            "l1d_miss_per_row",
            static_cast<double>(measured[kL1dMisses]) / rows);
    }
    if (measured.available(kLlcMisses) &&
        measured.available(kInstructions) &&
        measured[kInstructions] > 0) {
        registry.setPerf(
            "llc_miss_per_kinst",
            1000.0 * static_cast<double>(measured[kLlcMisses]) /
                static_cast<double>(measured[kInstructions]));
    }
    registry.setInfo("perf", statusName(status()));
}

MemoryStats
memoryStats()
{
#if HDHAM_PERF_LINUX
    MemoryStats stats = readProcStatus();
    if (stats.peakRssBytes < 0) {
        rusage usage;
        if (getrusage(RUSAGE_SELF, &usage) == 0) {
            stats.peakRssBytes =
                static_cast<std::int64_t>(usage.ru_maxrss) * 1024;
        }
    }
    return stats;
#elif HDHAM_PERF_HAVE_RUSAGE
    MemoryStats stats;
    rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) == 0) {
        // ru_maxrss is kilobytes on Linux/BSD, bytes on macOS.
#if defined(__APPLE__)
        stats.peakRssBytes =
            static_cast<std::int64_t>(usage.ru_maxrss);
#else
        stats.peakRssBytes =
            static_cast<std::int64_t>(usage.ru_maxrss) * 1024;
#endif
    }
    return stats;
#else
    return MemoryStats{};
#endif
}

Residency
residency(const void *addr, std::size_t bytes)
{
    Residency r;
#if HDHAM_PERF_LINUX
    if (!addr || bytes == 0)
        return r;
    const long page = sysconf(_SC_PAGESIZE);
    if (page <= 0)
        return r;
    const std::uintptr_t pageSize =
        static_cast<std::uintptr_t>(page);
    const std::uintptr_t start =
        reinterpret_cast<std::uintptr_t>(addr) & ~(pageSize - 1);
    const std::uintptr_t end =
        reinterpret_cast<std::uintptr_t>(addr) + bytes;
    const std::size_t pages = (end - start + pageSize - 1) / pageSize;
    std::vector<unsigned char> vec(pages);
    if (mincore(reinterpret_cast<void *>(start), pages * pageSize,
                vec.data()) != 0)
        return r;
    std::size_t resident = 0;
    for (unsigned char flags : vec)
        resident += flags & 1;
    r.residentBytes =
        static_cast<std::int64_t>(resident * pageSize);
    r.mappedBytes = static_cast<std::int64_t>(pages * pageSize);
#else
    (void)addr;
    (void)bytes;
#endif
    return r;
}

namespace testing
{

void
forceUnavailable(bool force)
{
    g_forceUnavailable.store(force, std::memory_order_relaxed);
}

} // namespace testing

} // namespace hdham::perf
