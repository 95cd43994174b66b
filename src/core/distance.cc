/**
 * @file
 * The Hamming kernel dispatcher: which registered backend serves
 * hamming() calls right now.
 *
 * The backends themselves live in src/core/kernels/ (one
 * translation unit each, collected by kernel_registry.cc); this
 * file only resolves and installs them. Resolution order, pinned by
 * tests/core/distance_test.cc:
 *
 *   1. HDHAM_KERNEL, when it names an available backend. A
 *      non-empty value that is unknown or unavailable falls back to
 *      step 2 with a one-time stderr warning naming the valid
 *      kernels (setKernelByName throws for the same inputs; the
 *      environment path can only warn, because it resolves lazily
 *      inside the first distance call).
 *   2. The widest-supported backend: the last registry entry whose
 *      availability predicate passes (registry order is
 *      narrowest-first).
 *
 * setKernelByName() (the CLI's --kernel flag) overrides the choice
 * at any time. The choice is one atomic pointer to a registry entry,
 * so a reader always gets one tier's kernels together, never a mix
 * across a concurrent switch. Concurrent first
 * calls race benignly -- both compute the same answer from the same
 * inputs.
 */

#include "core/distance.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace hdham::distance
{

namespace
{

/** The serving registry entry; null until the first resolution. */
std::atomic<const KernelEntry *> g_entry{nullptr};

/** The probe choice: the widest (last-registered) usable backend. */
const KernelEntry &
widestAvailable()
{
    const std::span<const KernelEntry> all = kernels();
    for (std::size_t i = all.size(); i-- > 0;)
        if (all[i].usable())
            return all[i];
    return all.front(); // scalar; unreachable in practice
}

void
install(const KernelEntry &entry)
{
    g_entry.store(&entry, std::memory_order_release);
}

/**
 * First-use resolution: resolveKernelChoice() on the environment,
 * with its warning (if any) printed to stderr exactly once per
 * process -- an invalid HDHAM_KERNEL must not fail silently, but it
 * must not spam either.
 */
const KernelEntry &
resolve()
{
    std::string warning;
    const KernelEntry &choice =
        resolveKernelChoice(std::getenv("HDHAM_KERNEL"), &warning);
    if (!warning.empty()) {
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true))
            std::fprintf(stderr, "%s\n", warning.c_str());
    }
    install(choice);
    return choice;
}

} // namespace

const KernelEntry &
resolveKernelChoice(const char *envValue, std::string *warning)
{
    if (warning)
        warning->clear();
    if (!envValue || !*envValue ||
        std::strcmp(envValue, "auto") == 0)
        return widestAvailable();
    const KernelEntry *entry = findKernel(envValue);
    if (entry && entry->usable())
        return *entry;
    const KernelEntry &fallback = widestAvailable();
    if (warning) {
        *warning =
            std::string("distance: ignoring HDHAM_KERNEL='") +
            envValue +
            (entry ? "': kernel is not available on this host ("
                         + std::string(entry->requirement) + ")"
                   : std::string("': unknown kernel (valid: ") +
                         kernelNameList() + ")") +
            "; using '" + fallback.name + "'";
    }
    return fallback;
}

void
setKernelByName(const std::string &name)
{
    if (name == "auto") {
        install(widestAvailable());
        return;
    }
    const KernelEntry *entry = findKernel(name);
    if (!entry) {
        throw std::invalid_argument(
            "distance: unknown kernel '" + name + "' (expected " +
            kernelNameList() + ")");
    }
    if (!entry->usable()) {
        throw std::invalid_argument(
            "distance: kernel '" + name +
            "' is not supported on this host (needs " +
            entry->requirement + ")");
    }
    install(*entry);
}

const KernelEntry &
activeEntry()
{
    const KernelEntry *entry = g_entry.load(std::memory_order_acquire);
    return entry ? *entry : resolve();
}

HammingFn
active()
{
    return activeEntry().fn;
}

const char *
activeKernelName()
{
    return activeEntry().name;
}

} // namespace hdham::distance
