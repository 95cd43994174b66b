/**
 * @file
 * Kernel registry with runtime CPU dispatch: the Hamming distance,
 * the bundling count and the short-text majority.
 *
 * Every search engine in the library -- the software oracle, D-HAM's
 * sampled scan, A-HAM's staged prefix sums -- reduces to the same
 * primitive: popcount(a XOR b) over the first @p bits components of
 * two packed word arrays. Training reduces to another: Bundler's
 * bit-sliced ones-counts, advanced up to 255 bound vectors at a time
 * (CountBlockFn). Encoding a short text reduces to a third: the
 * majority of at most 255 bound vectors (MajorityFn). Both bundling
 * kernels count their vectors in the same kRegisterPlanes = 8
 * register planes and differ only in the last step. This layer owns these primitives as a
 * *registry* of hardware tiers, each compiled in its own translation
 * unit under src/core/kernels/ with per-function target attributes.
 * The Hamming kernels:
 *
 *  - scalar:   one std::popcount per 64-bit word; the bit-exactness
 *              reference every other kernel must match.
 *  - sse2:     128-bit SWAR byte popcount folded by PSADBW, two
 *              words per vector step -- baseline x86-64, so every
 *              x86 host gets a SIMD kernel.
 *  - neon:     vcntq_u8 byte popcount with widening pairwise adds
 *              (AArch64, where AdvSIMD is architectural).
 *  - avx2:     256-bit VPSHUFB nibble-lookup popcount (Mula's
 *              method) with VPSADBW lane accumulation, four words
 *              per vector step.
 *  - avx512:   VPOPCNTQ on 512-bit lanes, eight words per step
 *              (x86-64 with AVX-512 VPOPCNTDQ).
 *
 * The count and majority kernels share one accumulation loop, a
 * carry-save tree over 16 vectors at a time (kernels/bundle_kernel.hh),
 * at the tier's vector width: 1 word per step for scalar, 2 for sse2
 * and neon, 4 for avx2, 8 for avx512.
 *
 * Each tier is a self-describing KernelEntry (name, availability
 * predicate, exact fn, block count, majority); the dispatcher only
 * iterates kernels(), so adding a tier never touches the dispatcher
 * -- only its own translation unit and the registry table. One
 * choice picks all three kernels of a tier.
 *
 * All kernels are exact integer bit counts, so switching kernels can
 * never change a search result, a bundled count, a majority mask or
 * a model byte -- the determinism contract (bit-identical output
 * across threads, batch splits and kernels) is pinned by
 * tests/core/distance_test.cc iterating every registered entry
 * (the count and majority kernels against a per-component count), by
 * the
 * batch-equivalence suite end to end, and by the bundler's and
 * encoder's oracle suites and the golden model bytes under every
 * tier.
 *
 * Dispatch: the active kernel is resolved once, on first use, in
 * this order: (1) the HDHAM_KERNEL environment variable when it
 * names an available kernel (an invalid value falls back with a
 * one-time stderr warning naming the valid kernels), (2) the
 * widest-supported backend by cpuid/hwcap probe -- the last
 * registered entry whose available() predicate passes.
 * setKernelByName() overrides the choice at any time (the CLI's
 * --kernel flag); pinning "scalar" gives bit-exactness tests a
 * fixed reference path.
 *
 * Contract of every kernel: reads exactly ceil(bits / 64) words from
 * both arrays; any bits of the final word beyond @p bits are masked
 * out, so callers may pass rows whose tail words carry padding.
 */

#ifndef HDHAM_CORE_DISTANCE_HH
#define HDHAM_CORE_DISTANCE_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace hdham::distance
{

/** Signature shared by every kernel implementation. */
using HammingFn = std::size_t (*)(const std::uint64_t *a,
                                  const std::uint64_t *b,
                                  std::size_t bits);

/**
 * Register planes of the bundling kernels: one pass sums up to
 * kMaxPassInputs bound vectors in registers without storing a count.
 */
inline constexpr std::size_t kRegisterPlanes = 8;

/** Most bound vectors one CountBlockFn or MajorityFn call takes: 255. */
inline constexpr std::size_t kMaxPassInputs =
    (std::size_t{1} << kRegisterPlanes) - 1;

/**
 * Signature shared by every bundling count kernel: add @p m bound
 * vectors, 1 <= m <= kMaxPassInputs, to bit-sliced ones-counts.
 * Vector j is the XOR of the @p arity rows factors[j * arity] ..
 * factors[j * arity + arity - 1], each @p words words long with a
 * clean tail. The counts are @p planeCount planes of @p words words
 * each, contiguous from @p planes; plane p holds bit p of every
 * component's count. The kernel sums the m vectors in kRegisterPlanes
 * register planes and adds them to the first kRegisterPlanes planes,
 * rippling the carry up. The caller guarantees planeCount >=
 * kRegisterPlanes and that m more inputs cannot carry out of the top
 * plane. Bundler (core/bundler.hh) is the caller; it hands the kernel
 * its planes from the input's weight bit up.
 */
using CountBlockFn = void (*)(const std::uint64_t *const *factors,
                              std::size_t arity, std::size_t m,
                              std::uint64_t *planes, std::size_t words,
                              std::size_t planeCount);

/**
 * Signature shared by every majority kernel: the componentwise
 * majority of @p m bound vectors, 1 <= m <= kMaxPassInputs,
 * vector j given as for CountBlockFn (@p arity rows of @p words words
 * each, with clean tails). Writes @p words words of two masks:
 * @p greater holds the components whose ones-count exceeds
 * floor(m / 2), @p ties those whose count is exactly m / 2 (none when
 * m is odd). These are the masks Bundler compares from the counts of
 * the same m vectors, so Bundler::fillTies completes the same
 * majority from the same Rng draws. Padding components count 0, so
 * they are in neither mask. The Encoder is the caller.
 */
using MajorityFn = void (*)(const std::uint64_t *const *factors,
                            std::size_t arity, std::size_t m,
                            std::size_t words, std::uint64_t *greater,
                            std::uint64_t *ties);

/**
 * One registered hardware tier. Entries live in their tier's
 * translation unit (src/core/kernels/hamming_<name>.cc) and are
 * collected by the registry table (kernel_registry.cc); everything
 * else -- dispatch, the CLI, the benches, the property tests --
 * iterates kernels() and never names a backend explicitly.
 */
struct KernelEntry
{
    /** Selection name: HDHAM_KERNEL / --kernel / setKernelByName. */
    const char *name;
    /** One-line implementation summary for docs and --help. */
    const char *description;
    /** Human-readable host requirement ("x86-64 with AVX2", ...). */
    const char *requirement;
    /**
     * True when the real implementation is compiled into this
     * binary. A cross-architecture entry (NEON on x86, the x86
     * kernels on ARM) stays registered with compiled == false and
     * scalar-fallback function pointers, so name lookups and the
     * kernel-matrix listing behave identically on every host.
     */
    bool compiled;
    /**
     * Runtime host probe (cpuid/hwcap). Only entries with
     * compiled && available() may be installed; on other entries
     * fn/countBlock/majority still point at safe scalar fallbacks,
     * never null.
     */
    bool (*available)();
    /** Exact kernel. */
    HammingFn fn;
    /** Bundling count kernel, at this tier's vector width. */
    CountBlockFn countBlock;
    /** Short-text majority kernel, at this tier's vector width. */
    MajorityFn majority;

    /** True when this backend can serve queries on this host. */
    bool usable() const { return compiled && available(); }
};

/**
 * Every registered backend, narrowest first -- the widest-supported
 * probe scans this list from the back. Stable for the life of the
 * process; entries' addresses are valid registry identities.
 */
std::span<const KernelEntry> kernels();

/**
 * Look up a backend by selection name; null for anything unknown
 * (including "auto", which is a dispatch directive, not a backend).
 */
const KernelEntry *findKernel(std::string_view name);

/**
 * Diagnostic list of every selection name plus "auto", for error
 * messages: "scalar, sse2, neon, avx2, avx512 or auto".
 */
std::string kernelNameList();

/** Comma-joined names of the backends compiled into this binary. */
std::string compiledKernelList();

/**
 * Comma-joined names of the backends this host can execute right
 * now -- the CPU-capability fingerprint bench baselines record.
 */
std::string availableKernelList();

/** Reference scalar kernel (always available; the test oracle). */
std::size_t scalarHamming(const std::uint64_t *a,
                          const std::uint64_t *b, std::size_t bits);

/**
 * Pin the active kernel by selection name; "auto" re-runs the
 * widest-supported probe.
 * @throws std::invalid_argument on an unknown name, or a known
 * backend this host cannot execute.
 */
void setKernelByName(const std::string &name);

/**
 * Pure resolution of the HDHAM_KERNEL environment value (may be
 * null): returns the entry that value selects, falling back to the
 * widest-supported backend -- and, when the value was non-empty but
 * invalid or unavailable, writes a diagnostic naming the valid
 * kernels into @p warning (cleared otherwise, may be null). The
 * first-use resolver calls this with getenv("HDHAM_KERNEL") and
 * prints the warning to stderr once; tests call it directly.
 */
const KernelEntry &resolveKernelChoice(const char *envValue,
                                       std::string *warning);

/**
 * The registry entry currently serving hamming() calls, resolving
 * the startup default on first use. One atomic load: a caller that
 * needs more than one of a tier's kernels hoists this once, so all
 * come from the same tier even across a concurrent
 * setKernelByName().
 */
const KernelEntry &activeEntry();

/** activeEntry().name -- what tools report in JSON output. */
const char *activeKernelName();

/**
 * The active kernel's function pointer. Hot loops hoist this once
 * per scan so the per-row cost is a direct indirect call.
 */
HammingFn active();

/**
 * Hamming distance over the first @p bits components of @p a and
 * @p b through the active kernel.
 */
inline std::size_t
hamming(const std::uint64_t *a, const std::uint64_t *b,
        std::size_t bits)
{
    return active()(a, b, bits);
}

} // namespace hdham::distance

#endif // HDHAM_CORE_DISTANCE_HH
