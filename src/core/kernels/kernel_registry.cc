/**
 * @file
 * The ordered kernel table behind distance::kernels(), plus the
 * name-lookup and listing helpers built on it.
 *
 * Order is narrowest-first: the widest-supported probe (the "auto"
 * resolution) scans from the back, so appending a wider backend
 * here makes it the new default on hosts that support it without
 * touching the dispatcher. This table is the ONE place a new
 * backend is registered; everything else iterates kernels().
 */

#include <array>

#include "core/kernels/hamming_kernels.hh"

namespace hdham::distance
{

std::span<const KernelEntry>
kernels()
{
    static const std::array<KernelEntry, 5> table = {
        detail::scalarKernel(), detail::sse2Kernel(),
        detail::neonKernel(),   detail::avx2Kernel(),
        detail::avx512Kernel(),
    };
    return {table.data(), table.size()};
}

const KernelEntry *
findKernel(std::string_view name)
{
    for (const KernelEntry &entry : kernels())
        if (name == entry.name)
            return &entry;
    return nullptr;
}

std::string
kernelNameList()
{
    std::string out;
    for (const KernelEntry &entry : kernels()) {
        if (!out.empty())
            out += ", ";
        out += entry.name;
    }
    return out + " or auto";
}

namespace
{

std::string
joinNames(bool (*keep)(const KernelEntry &))
{
    std::string out;
    for (const KernelEntry &entry : kernels()) {
        if (!keep(entry))
            continue;
        if (!out.empty())
            out += ",";
        out += entry.name;
    }
    return out;
}

} // namespace

std::string
compiledKernelList()
{
    return joinNames(
        +[](const KernelEntry &e) { return e.compiled; });
}

std::string
availableKernelList()
{
    return joinNames(+[](const KernelEntry &e) { return e.usable(); });
}

} // namespace hdham::distance
