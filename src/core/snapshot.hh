/**
 * @file
 * Immutable memory snapshots and the source that publishes them: the
 * ownership model that lets one process answer concurrent query
 * traffic while the memory keeps learning.
 *
 * The paper's associative memory is train-once/query-forever, but a
 * resident service needs online updates -- bundler retrains, new
 * classes arriving -- without a reader ever seeing a half-updated
 * store. Queries never touch a mutable store; they pin an immutable
 * MemorySnapshot (a frozen AssociativeMemory plus the side memories
 * the encoder needs), and a writer prepares the next snapshot
 * out-of-line and publishes it with one pointer exchange.
 *
 * Three guarantees, each load-bearing for the serving story:
 *
 *  - A pin is one short critical section. SnapshotSource::acquire()
 *    copies a shared_ptr under the source's mutex, and publish()
 *    holds that mutex only to stamp a sequence number and exchange
 *    the pointer. A reader that acquired snapshot k keeps scanning
 *    snapshot k while the writer publishes k+1, k+2, ...
 *  - Every query observes exactly one coherent snapshot. A pinned
 *    snapshot is immutable by construction: the class store, labels,
 *    metrics sink and side memories were frozen before publication,
 *    so there is no torn state to observe. A batch either sees the
 *    old store or the new one, never a mix.
 *  - Old snapshots retire exactly when the last reference drops.
 *    The source holds one reference and each SnapshotRef one more;
 *    whichever drops last frees the snapshot, on its own thread.
 *    publish() releases the snapshot it replaced only after dropping
 *    the mutex, so a large store's free or a model's munmap never
 *    delays a pin.
 *
 * The writer side is SnapshotBuilder, the one online-learning store.
 * HD training is a running majority, so it keeps one Bundler of
 * ones-counters per class, not just the thresholded prototypes, and
 * can keep learning after deployment. Updates (addSample,
 * addLabeledSample, assimilate) mutate only the builder's private
 * counters; publish() thresholds them into a fresh AssociativeMemory,
 * wraps it in a MemorySnapshot and swaps it in -- one crossbar
 * programming pass per retraining session, the paper's
 * write-endurance argument. No query path ever sees the intermediate
 * states.
 */

#ifndef HDHAM_CORE_SNAPSHOT_HH
#define HDHAM_CORE_SNAPSHOT_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/assoc_memory.hh"
#include "core/bundler.hh"
#include "core/hypervector.hh"
#include "core/item_memory.hh"
#include "core/metrics.hh"
#include "core/model_file.hh"
#include "core/random.hh"

namespace hdham::snapshot
{

/**
 * Immutable snapshot of a servable memory: the frozen class store
 * (owned in RAM or mapped from an hdham.model.v1 file), its labels,
 * the metrics sink it serves with, and the side memories an encoder
 * needs to turn raw inputs into queries.
 *
 * Everything observable is fixed before publication; afterwards the
 * object is only ever read, concurrently, until the last reference
 * drops. The AssociativeMemory is exposed const-only -- after this
 * refactor no query path in the library holds a mutable reference to
 * a published store.
 */
class MemorySnapshot
{
  public:
    /**
     * Freeze an in-RAM memory (typically a SnapshotBuilder product)
     * into a snapshot. The memory is moved in; @p sink is the
     * metrics sink its searches feed (nullptr = detached; it must
     * outlive every reference to the snapshot); @p items / @p levels
     * are optional side memories carried along for encoder rebuilds.
     */
    static std::unique_ptr<MemorySnapshot>
    fromMemory(AssociativeMemory &&am,
               metrics::QueryMetrics *sink = nullptr,
               std::optional<ItemMemory> items = std::nullopt,
               std::optional<ItemMemory> levels = std::nullopt);

    /**
     * Freeze an already-opened hdham.model.v1 view as a snapshot --
     * the path the shared model-open helper (core/model_loader.hh)
     * uses so the server never reopens or copies the class store.
     * Row words are served straight from the mapping; side memories
     * are materialized so the encoder survives swaps. @p sink as in
     * fromMemory().
     */
    static std::unique_ptr<MemorySnapshot>
    fromView(modelfile::ModelView &&view,
             metrics::QueryMetrics *sink = nullptr);

    MemorySnapshot(const MemorySnapshot &) = delete;
    MemorySnapshot &operator=(const MemorySnapshot &) = delete;

    /** The frozen memory. Const-only: published stores are immutable. */
    const AssociativeMemory &memory() const { return *mem; }

    /** Dimensionality. */
    std::size_t dim() const { return mem->dim(); }

    /** Stored classes. */
    std::size_t classes() const { return mem->size(); }

    /**
     * Publication sequence number: 0 until published, then the
     * 1-based position in the owning source's swap order.
     */
    std::uint64_t sequence() const { return seq; }

    /** True when the class store is served from an mmap'ed file. */
    bool mapped() const { return view.has_value(); }

    /** Model file path ("" when built from RAM). */
    std::string modelPath() const { return view ? view->path() : ""; }

    /** Whether the snapshot carries an item memory. */
    bool hasItemMemory() const { return items.has_value(); }

    /** The frozen item memory. @pre hasItemMemory(). */
    const ItemMemory &itemMemory() const { return *items; }

    /** Whether the snapshot carries a level memory. */
    bool hasLevelMemory() const { return levels.has_value(); }

    /** The frozen level memory. @pre hasLevelMemory(). */
    const ItemMemory &levelMemory() const { return *levels; }

    /** The mapped view (engaged only when mapped()). */
    const modelfile::ModelView *modelView() const
    {
        return view.has_value() ? &*view : nullptr;
    }

  private:
    friend class SnapshotSource;

    MemorySnapshot(AssociativeMemory &&owned,
                   metrics::QueryMetrics *sink,
                   std::optional<ItemMemory> items,
                   std::optional<ItemMemory> levels);
    MemorySnapshot(modelfile::ModelView &&mapped,
                   metrics::QueryMetrics *sink);

    /** Stamped by SnapshotSource::publish before the swap. */
    std::uint64_t seq = 0;
    /** Engaged when the store is served from a mapped model file;
     *  the served memory then lives inside the view. */
    std::optional<modelfile::ModelView> view;
    /** Owned store (builder products and other in-RAM memories). */
    std::optional<AssociativeMemory> owned;
    /** The served memory: &view->memory() or &*owned. */
    const AssociativeMemory *mem = nullptr;
    std::optional<ItemMemory> items;
    std::optional<ItemMemory> levels;
};

/**
 * A pin on one published snapshot. Holding a ref keeps the snapshot
 * (and, for mapped snapshots, the file mapping) alive; the snapshot
 * retires when the last ref drops, wherever that happens. A copy is
 * one more pin. Acquire one per batch, not per query: the point of
 * the design is that a whole batch observes one snapshot.
 */
using SnapshotRef = std::shared_ptr<const MemorySnapshot>;

/**
 * The single place readers load the current snapshot from.
 *
 * One mutex guards one shared_ptr: acquire() copies it, and
 * publish() stamps the next sequence number and exchanges it.
 * Concurrent publishers serialize on the same mutex, so the stamps
 * stay 1-based and gapless and the current snapshot is always the
 * last one stamped. A SnapshotRef never points back at its source,
 * so pins safely outlive both the source and the writer.
 *
 * Destruction requires quiescence (no concurrent acquire/publish),
 * like any other C++ object; outstanding SnapshotRefs remain valid
 * afterwards and retire their snapshot on their own.
 */
class SnapshotSource
{
  public:
    SnapshotSource() = default;

    SnapshotSource(const SnapshotSource &) = delete;
    SnapshotSource &operator=(const SnapshotSource &) = delete;

    /** True once a snapshot has been published. */
    bool hasSnapshot() const;

    /** Pin the current snapshot (empty ref before the first publish). */
    SnapshotRef acquire() const;

    /**
     * Publish @p snap as the new current snapshot: stamp its
     * sequence number and swap it in under the mutex, then drop the
     * source's reference to the previous snapshot (it retires when
     * its last in-flight reader drops). Safe to call concurrently.
     * Returns the stamped sequence number (1-based).
     */
    std::uint64_t publish(std::unique_ptr<MemorySnapshot> snap);

    /** Snapshots published so far (== current sequence number). */
    std::uint64_t swaps() const;

    /**
     * Published snapshots not yet freed, process-wide across all
     * sources -- current snapshots plus any pinned retirees. The
     * retirement observable the soak tests assert on.
     */
    static std::size_t liveSnapshots();

  private:
    mutable std::mutex mu;
    SnapshotRef current;
};

/**
 * Single-writer snapshot builder: the only mutable object in the
 * serving path, and it is never visible to a reader.
 *
 * Owns the per-class majority counters (one Bundler per class), the
 * class labels and the tie-break Rng, plus the serving configuration
 * (metrics sink, and the side memories of the seed snapshot) every
 * published snapshot is frozen with. All mutations -- new classes,
 * training samples, reconsolidation-style assimilation -- accumulate
 * out-of-line; nothing is observable until publish() thresholds the
 * counters into a fresh AssociativeMemory and swaps it into a
 * SnapshotSource. A sample of another dimension is refused before
 * anything changes. Methods are internally serialized, so concurrent
 * update requests (e.g. from several server connections) are safe;
 * the design intent is still a single logical writer.
 *
 * The tie-break Rng is one stream: publish() and build() threshold
 * the classes in id order, and assimilate() thresholds every trained
 * class to compare, each drawing its ties from that stream. The same
 * seed and the same calls therefore give the same rows bit for bit.
 */
class SnapshotBuilder
{
  public:
    /** Timings of the most recent publish(). */
    struct PublishStats
    {
        /** Sequence number the snapshot was published as. */
        std::uint64_t sequence = 0;
        /** Microseconds spent building the snapshot out-of-line
         *  (threshold + freeze) -- work readers never see. */
        double buildUs = 0.0;
        /** Microseconds spent in SnapshotSource::publish itself
         *  (the swap, plus freeing the replaced snapshot when no
         *  reader still pins it). */
        double swapUs = 0.0;
    };

    /**
     * @param dim  hypervector dimensionality
     * @param seed tie-break randomness for snapshot majorities
     * @throws std::invalid_argument when @p dim is zero.
     */
    explicit SnapshotBuilder(std::size_t dim,
                             std::uint64_t seed = 0x747261696eULL);

    /**
     * Seed the builder from an existing snapshot: one class per
     * stored row, each primed with its prototype as a single sample
     * (the majority of one sample is the sample, so an immediate
     * publish() reproduces the seed store bit for bit). Carries the
     * snapshot's side memories into the builder. The per-class
     * sample history is not recoverable from thresholded prototypes,
     * so later samples update a majority-of-(1 + new) -- the
     * documented semantics of resuming training from a deployed
     * model.
     */
    SnapshotBuilder(const MemorySnapshot &seedSnapshot,
                    std::uint64_t seed = 0x747261696eULL);

    /** Dimensionality. */
    std::size_t dim() const;

    /** Classes created so far. */
    std::size_t classes() const;

    /** Create a new (empty) class; returns its id. */
    std::size_t addClass(std::string label = "");

    /** Label of class @p id. */
    std::string labelOf(std::size_t id) const;

    /**
     * Accumulate one encoded training sample into class @p id.
     * Not observable by readers until publish().
     * @throws std::invalid_argument, changing nothing, when @p id is
     * not a class or hv.dim() != dim() (naming both dimensions).
     */
    void addSample(std::size_t id, const Hypervector &hv);

    /**
     * Accumulate @p hv into the first class labeled @p label,
     * creating the class on first sight. The lookup, the creation
     * and the add happen under one lock, so concurrent callers that
     * add the same new label create exactly one class. Returns the
     * class updated or created.
     * @throws std::invalid_argument, creating no class, when
     * hv.dim() != dim() (naming both dimensions).
     */
    std::size_t addLabeledSample(const std::string &label,
                                 const Hypervector &hv);

    /** Samples accumulated into class @p id so far. */
    std::uint64_t sampleCount(std::size_t id) const;

    /**
     * Reconsolidation-style update: find the trained class whose
     * current prototype (its majority, ties drawn from the builder's
     * Rng stream, the one publish() draws from) is nearest to @p hv,
     * ties to the lowest id. Merge @p hv into it when that distance
     * is within @p mergeThreshold bits (update the similar key instead
     * of inserting), else create a new class labeled @p label.
     * Returns the class updated or created.
     * @throws std::invalid_argument, changing nothing, when
     * hv.dim() != dim() (naming both dimensions).
     */
    std::size_t assimilate(const Hypervector &hv,
                           const std::string &label,
                           std::size_t mergeThreshold);

    /**
     * Metrics sink every published snapshot feeds (must outlive all
     * published snapshots; nullptr detaches).
     */
    void attachMetrics(metrics::QueryMetrics *m);

    /**
     * Build a snapshot from the current counters and publish it to
     * @p source. The expensive part (majority thresholding, the
     * freeze) happens before the swap, out-of-line from every
     * reader. Returns the new sequence number.
     * @pre classes() > 0 and every class has at least one sample.
     */
    std::uint64_t publish(SnapshotSource &source);

    /**
     * The snapshot publish() would produce, without publishing --
     * what the equivalence tests pin against the direct engine path.
     * Draws its ties from the same stream publish() does.
     * @throws std::logic_error when a class has no samples.
     */
    std::unique_ptr<MemorySnapshot> build() const;

    /** Timings of the most recent publish(). */
    PublishStats lastPublish() const;

  private:
    std::size_t addClassLocked(std::string label);
    Hypervector prototypeLocked(std::size_t id) const;
    std::unique_ptr<MemorySnapshot> buildLocked() const;

    mutable std::mutex mu;
    std::size_t dimension;
    /** Tie-break stream of every majority the builder takes. */
    mutable Rng rng;
    /** Per-class ones-counters, by class id. */
    std::vector<Bundler> bundlers;
    std::vector<std::string> labels;
    metrics::QueryMetrics *sink = nullptr;
    std::optional<ItemMemory> items;
    std::optional<ItemMemory> levels;
    PublishStats stats;
};

} // namespace hdham::snapshot

#endif // HDHAM_CORE_SNAPSHOT_HH
