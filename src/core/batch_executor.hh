/**
 * @file
 * Shared execution scaffold for batched associative searches.
 *
 * Every engine in the library -- the software AssociativeMemory and
 * the three behavioral HAM designs -- serves batches the same way:
 * split the queries into one contiguous chunk per worker
 * (core/parallel_for), run a per-query kernel that writes results by
 * index, tally per-worker observability counts and merge them into
 * the metrics sink once per chunk, and record the batch envelope
 * (batch count + wall-time histogram). This header owns that
 * scaffold so each engine's searchBatch shrinks to three lambdas:
 * how to start a chunk tally, how to serve one query, and how to
 * merge a finished chunk's tally.
 *
 * Determinism contract (inherited from parallelFor + substreamSeed):
 * the executor only decides *which thread* serves which index range.
 * Kernels write results[q] by index and derive any randomness from
 * the query index, so the output is bit-identical for every thread
 * count and batch split. The executor adds no randomness and no
 * cross-chunk state of its own.
 *
 * Observability placement mirrors what the four hand-rolled
 * scaffolds did before they were consolidated here: a TRACE_BATCH
 * scope around the whole call, one TRACE_SPAN per worker chunk, one
 * merge per chunk (exact totals, no atomics inside the scan), and
 * one latency record per batch. All of it is behind the single
 * sink-pointer branch, so a detached engine pays one predictable
 * branch per batch.
 */

#ifndef HDHAM_CORE_BATCH_EXECUTOR_HH
#define HDHAM_CORE_BATCH_EXECUTOR_HH

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/event_log.hh"
#include "core/hypervector.hh"
#include "core/metrics.hh"
#include "core/parallel_for.hh"
#include "core/trace.hh"

namespace hdham::batch
{

/**
 * Shared precondition of every batched search: at least one stored
 * class. @throws std::logic_error naming @p engine when empty.
 */
inline void
requireStored(std::size_t stored, const char *engine)
{
    if (stored == 0) {
        throw std::logic_error(std::string(engine) +
                               "::searchBatch: no stored classes");
    }
}

/**
 * Shared precondition of every search: a query of the engine's
 * dimension @p dim, checked before any row is read (a shorter query's
 * words would run out first). @throws std::invalid_argument naming
 * @p what and both dimensions.
 */
inline void
requireDim(const Hypervector &query, std::size_t dim, const char *what)
{
    if (query.dim() != dim) {
        throw std::invalid_argument(
            std::string(what) + ": query dimension " +
            std::to_string(query.dim()) +
            " does not match the stored dimension " +
            std::to_string(dim));
    }
}

/** requireDim for every query of a batch, before any is searched. */
inline void
requireDims(const std::vector<Hypervector> &queries, std::size_t dim,
            const char *what)
{
    for (const Hypervector &query : queries)
        requireDim(query, dim, what);
}

/** Trace span names of one engine's batch scaffold. */
struct SpanNames
{
    /** Batch scope around the whole searchBatch call. */
    const char *batch;
    /** Span around each worker chunk. */
    const char *chunk;
};

/** Chunk tally for engines whose counters derive from n alone. */
struct NoTally
{
};

/**
 * Run the batch scaffold: @p numQueries queries over @p threads
 * workers (0 = all hardware threads), one @p Result per query in
 * order.
 *
 * @param spans      trace names for the batch scope and chunk spans.
 * @param sink       metrics sink, or nullptr when detached. The
 *                   batch envelope (batches counter, latency
 *                   histogram) is recorded here; everything else is
 *                   the merge callback's job.
 * @param makeTally  () -> Tally; called once per worker chunk to
 *                   start its private tally (and any per-chunk
 *                   scratch state the kernel wants to reuse).
 * @param kernel     (std::size_t q, Tally &) -> Result; serves query
 *                   @p q. Runs concurrently across chunks; must only
 *                   read shared state and write through its tally.
 * @param merge      (const Tally &, begin, end) -> void; folds a
 *                   finished chunk's tally into the sink. Only
 *                   called when a sink is attached, once per chunk,
 *                   so totals stay exact without atomics in the
 *                   scan.
 */
template <typename Result, typename MakeTally, typename Kernel,
          typename Merge>
std::vector<Result>
run(const SpanNames &spans, std::size_t numQueries,
    std::size_t threads, metrics::QueryMetrics *sink,
    MakeTally makeTally, Kernel kernel, Merge merge)
{
    TRACE_BATCH(spans.batch);
    const metrics::Clock::time_point start =
        sink ? metrics::Clock::now() : metrics::Clock::time_point{};
    std::vector<Result> results(numQueries);
    parallelFor(numQueries, threads,
                [&](std::size_t begin, std::size_t end) {
                    TRACE_SPAN(spans.chunk);
                    // Slow-query capture: one atomic load per chunk;
                    // armed captures wrap each kernel call on the
                    // worker that runs it (core/event_log).
                    const events::SlowQueryCapture slow =
                        events::activeSlowQueryCapture();
                    auto tally = makeTally();
                    for (std::size_t q = begin; q < end; ++q) {
                        if (slow.log) {
                            results[q] = events::runCaptured(
                                spans.batch, q, slow,
                                [&] { return kernel(q, tally); });
                        } else {
                            results[q] = kernel(q, tally);
                        }
                    }
                    if (sink)
                        merge(tally, begin, end);
                });
    if (sink) {
        sink->batches.add(1);
        sink->batchLatencyUs.record(metrics::elapsedMicros(start));
    }
    return results;
}

} // namespace hdham::batch

#endif // HDHAM_CORE_BATCH_EXECUTOR_HH
