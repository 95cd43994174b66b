/**
 * @file
 * Chunked fork-join parallelism for batch query scans.
 *
 * The hardware the paper models is intrinsically batch-parallel:
 * every CAM row discharges at once, and a stream of queries keeps the
 * array busy back to back. The software batch engine mirrors that
 * shape by splitting a batch of independent queries into one
 * contiguous chunk per worker thread.
 *
 * Determinism contract: parallelFor only decides *which thread*
 * executes which index range. Callers write results by index into
 * pre-sized storage and derive any randomness from the index (see
 * substreamSeed in core/random.hh), so the output is bit-identical
 * for every thread count and chunking.
 *
 * Observability: each worker inherits the caller's trace context
 * (core/trace.hh), so spans opened inside chunks group under the
 * batch scope that issued the parallelFor.
 *
 * Workers are forked per call and joined before returning. At batch
 * granularity (hundreds of multi-kilobit scans per chunk) the fork
 * cost is noise, and a pool-free design keeps the utility free of
 * shared mutable state -- there is nothing to race on under TSan
 * beyond the caller's own writes.
 */

#ifndef HDHAM_CORE_PARALLEL_FOR_HH
#define HDHAM_CORE_PARALLEL_FOR_HH

#include <cstddef>
#include <functional>

namespace hdham
{

/**
 * Worker count actually used for a request: 0 means "all hardware
 * threads"; anything else is clamped to at least 1.
 */
std::size_t resolveThreads(std::size_t requested);

/**
 * Run @p body over the index range [0, n), split into one contiguous
 * chunk per worker: body(begin, end) with 0 <= begin < end <= n.
 * Every index is covered exactly once. With @p threads <= 1 (or a
 * range too small to split) the body runs inline on the calling
 * thread. The first exception thrown by any chunk is rethrown on the
 * caller after all workers have joined.
 */
void parallelFor(
    std::size_t n, std::size_t threads,
    const std::function<void(std::size_t, std::size_t)> &body);

} // namespace hdham

#endif // HDHAM_CORE_PARALLEL_FOR_HH
