/**
 * @file
 * Immutable, epoch-swapped memory snapshots: the ownership model
 * that lets one process answer heavy concurrent query traffic while
 * the memory keeps learning.
 *
 * The paper's associative memory is train-once/query-forever, but a
 * resident service needs online updates -- bundler retrains, new
 * classes arriving -- without ever blocking a reader mid-scan. The
 * classic fix is RCU: queries never touch a mutable store; they pin
 * an immutable MemorySnapshot (a frozen AssociativeMemory plus the
 * side memories the encoder needs), and a single writer prepares the
 * next snapshot out-of-line and publishes it with one atomic swap.
 *
 * Three guarantees, each load-bearing for the serving story:
 *
 *  - Readers never block. SnapshotSource::acquire() is one epoch
 *    announcement plus two atomic operations -- no mutex, no CAS
 *    retry loop on the hot path. A reader that acquired snapshot k
 *    keeps scanning snapshot k even while the writer publishes
 *    k+1, k+2, ...
 *  - Every query observes exactly one coherent snapshot. A pinned
 *    snapshot is immutable by construction: the class store, labels,
 *    metrics sink and side memories were frozen before publication,
 *    so there is no torn state to observe. The swap is a single
 *    pointer exchange; a batch either sees the old store or the new
 *    one, never a mix.
 *  - Old snapshots retire exactly when the last in-flight reference
 *    drops. Publication holds one reference; each SnapshotRef holds
 *    one more. The writer waits one epoch grace period after the
 *    swap (so no reader is mid-acquire on the old pointer), then
 *    releases the publication reference; whichever side drops the
 *    count to zero frees the snapshot. Readers pay no cost for
 *    retirement beyond their own reference decrement.
 *
 * The writer side is SnapshotBuilder: per-class majority counters
 * (core/trainable_memory.hh) plus the metrics sink every published
 * snapshot is frozen with. Updates (addSample,
 * assimilate) mutate only the builder's private counters; publish()
 * thresholds them into a fresh AssociativeMemory, wraps it in a
 * MemorySnapshot and swaps it in. No query path ever sees the
 * intermediate states.
 */

#ifndef HDHAM_CORE_SNAPSHOT_HH
#define HDHAM_CORE_SNAPSHOT_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "core/assoc_memory.hh"
#include "core/item_memory.hh"
#include "core/level_memory.hh"
#include "core/metrics.hh"
#include "core/model_file.hh"
#include "core/trainable_memory.hh"

namespace hdham::snapshot
{

class MemorySnapshot;
class SnapshotSource;

/**
 * Serving configuration frozen into a snapshot (namespace-scope so
 * the factory declarations can default-construct it; also usable as
 * MemorySnapshot::Options).
 */
struct SnapshotOptions
{
    /**
     * Metrics sink the snapshot's searches feed (nullptr =
     * detached). Must outlive every reference to the snapshot.
     */
    metrics::QueryMetrics *sink = nullptr;
};

namespace detail
{

/**
 * Refcounted holder of one published snapshot. The count starts at
 * 1 (the publication reference held by the SnapshotSource); every
 * pinned SnapshotRef adds one. unref() frees the node -- and with it
 * the snapshot -- when the last reference drops, on whichever thread
 * that happens to be. Self-contained on purpose: a node never points
 * back at its source, so pinned references safely outlive both the
 * source and the writer.
 */
struct Node
{
    explicit Node(std::unique_ptr<const MemorySnapshot> s);
    ~Node();

    std::unique_ptr<const MemorySnapshot> snap;
    std::atomic<std::uint64_t> refs{1};
};

/** Add one reference. */
void ref(Node *node);

/** Drop one reference; frees the node when it was the last. */
void unref(Node *node);

} // namespace detail

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
    /** Serving configuration frozen into a snapshot. */
    using Options = SnapshotOptions;

    /**
     * Freeze an in-RAM memory (typically a SnapshotBuilder product)
     * into a snapshot. The memory is moved in; @p items / @p levels
     * are optional side memories carried along for encoder rebuilds.
     */
    static std::unique_ptr<MemorySnapshot>
    fromMemory(AssociativeMemory &&am, const Options &opts = {},
               std::optional<ItemMemory> items = std::nullopt,
               std::optional<LevelItemMemory> levels = std::nullopt);

    /**
     * Freeze an already-opened hdham.model.v1 view as a snapshot --
     * the path the shared model-open helper (core/model_loader.hh)
     * uses so the server never reopens or copies the class store.
     * Row words are served straight from the mapping; side memories
     * are materialized so the encoder survives swaps.
     */
    static std::unique_ptr<MemorySnapshot>
    fromView(modelfile::ModelView &&view, const Options &opts = {});

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
    const LevelItemMemory &levelMemory() const { return *levels; }

    /** The mapped view (engaged only when mapped()). */
    const modelfile::ModelView *modelView() const
    {
        return view.has_value() ? &*view : nullptr;
    }

  private:
    friend class SnapshotSource;

    MemorySnapshot(AssociativeMemory &&owned, const Options &opts,
                   std::optional<ItemMemory> items,
                   std::optional<LevelItemMemory> levels);
    MemorySnapshot(modelfile::ModelView &&mapped,
                   const Options &opts);

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
    std::optional<LevelItemMemory> levels;
};

/**
 * Move-only pin on one published snapshot. Holding a ref keeps the
 * snapshot (and, for mapped snapshots, the file mapping) alive; the
 * snapshot retires when the last ref drops, wherever that happens.
 * Acquire one per batch, not per query -- the pin is cheap, but the
 * point of the design is that a whole batch observes one snapshot.
 */
class SnapshotRef
{
  public:
    SnapshotRef() = default;
    ~SnapshotRef() { reset(); }

    SnapshotRef(SnapshotRef &&other) noexcept : node(other.node)
    {
        other.node = nullptr;
    }
    SnapshotRef &operator=(SnapshotRef &&other) noexcept
    {
        if (this != &other) {
            reset();
            node = other.node;
            other.node = nullptr;
        }
        return *this;
    }
    SnapshotRef(const SnapshotRef &) = delete;
    SnapshotRef &operator=(const SnapshotRef &) = delete;

    /** True when a snapshot is pinned. */
    explicit operator bool() const { return node != nullptr; }

    /** The pinned snapshot. @pre bool(*this). */
    const MemorySnapshot &operator*() const { return *get(); }
    const MemorySnapshot *operator->() const { return get(); }
    const MemorySnapshot *get() const
    {
        return node == nullptr ? nullptr : node->snap.get();
    }

    /** An additional pin on the same snapshot. */
    SnapshotRef clone() const
    {
        if (node != nullptr)
            detail::ref(node);
        return SnapshotRef(node);
    }

    /** Drop the pin (idempotent). */
    void reset()
    {
        if (node != nullptr) {
            detail::unref(node);
            node = nullptr;
        }
    }

  private:
    friend class SnapshotSource;
    explicit SnapshotRef(detail::Node *n) : node(n) {}

    detail::Node *node = nullptr;
};

/**
 * The single place readers load the current snapshot from.
 *
 * acquire() is lock-free: announce the global epoch in this thread's
 * reader slot, load the head pointer, take a reference, clear the
 * slot. publish() (single writer at a time; serialized internally)
 * swaps the head, bumps the epoch and waits until every reader slot
 * is quiescent or has moved past the swap -- the grace period that
 * makes the subsequent release of the old snapshot's publication
 * reference safe. Readers never wait for the writer; the writer
 * waits (briefly -- an acquire is a handful of instructions) for
 * readers only inside publish().
 *
 * Threads beyond the fixed reader-slot pool (kReaderSlots) fall back
 * to a short mutex critical section shared with the swap itself --
 * correct, merely not lock-free. Server thread pools never get near
 * the limit.
 *
 * Destruction requires quiescence (no concurrent acquire/publish),
 * like any other C++ object; outstanding SnapshotRefs remain valid
 * afterwards and retire their snapshot on their own.
 */
class SnapshotSource
{
  public:
    /** Reader slots available for lock-free acquires, process-wide. */
    static constexpr std::size_t kReaderSlots = 256;

    SnapshotSource() = default;
    ~SnapshotSource();

    SnapshotSource(const SnapshotSource &) = delete;
    SnapshotSource &operator=(const SnapshotSource &) = delete;

    /** True once a snapshot has been published. */
    bool hasSnapshot() const
    {
        return head.load(std::memory_order_acquire) != nullptr;
    }

    /**
     * Pin the current snapshot (empty ref before the first
     * publish). Lock-free; never blocks on a concurrent publish.
     */
    SnapshotRef acquire() const;

    /**
     * Publish @p snap as the new current snapshot: stamp its
     * sequence number, swap it in atomically, wait one epoch grace
     * period, then release the previous snapshot's publication
     * reference (it retires when its last in-flight reader drops).
     * Safe to call concurrently (publishers serialize on an internal
     * mutex); readers are never blocked. Returns the stamped
     * sequence number (1-based).
     */
    std::uint64_t publish(std::unique_ptr<MemorySnapshot> snap);

    /** Snapshots published so far (== current sequence number). */
    std::uint64_t swaps() const
    {
        return swapCount.load(std::memory_order_relaxed);
    }

    /**
     * Published snapshots not yet freed, process-wide across all
     * sources -- current heads plus any pinned retirees. The
     * retirement observable the soak tests assert on.
     */
    static std::size_t liveSnapshots();

  private:
    mutable std::mutex fallbackMu;
    std::mutex writerMu;
    std::atomic<detail::Node *> head{nullptr};
    std::atomic<std::uint64_t> swapCount{0};
};

/**
 * Single-writer snapshot builder: the only mutable object in the
 * serving path, and it is never visible to a reader.
 *
 * Owns the per-class majority counters (a TrainableMemory) plus the
 * serving configuration (metrics sink, and the side memories of the
 * seed snapshot) every published snapshot is frozen with. All
 * mutations -- new classes, training samples, reconsolidation-style
 * assimilation -- accumulate out-of-line; nothing is observable
 * until publish() thresholds the counters into a fresh
 * AssociativeMemory and swaps it into a SnapshotSource. Methods are
 * internally serialized, so concurrent update requests (e.g. from
 * several server connections) are safe; the design intent is still
 * a single logical writer.
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
         *  (the swap plus the epoch grace period). */
        double swapUs = 0.0;
    };

    /**
     * @param dim  hypervector dimensionality
     * @param seed tie-break randomness for snapshot majorities
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
     */
    void addSample(std::size_t id, const Hypervector &hv);

    /**
     * Accumulate @p hv into the first class labeled @p label,
     * creating the class on first sight. The lookup, the creation
     * and the add happen under one lock, so concurrent callers that
     * add the same new label create exactly one class. Returns the
     * class updated or created.
     */
    std::size_t addLabeledSample(const std::string &label,
                                 const Hypervector &hv);

    /** Samples accumulated into class @p id so far. */
    std::uint64_t sampleCount(std::size_t id) const;

    /**
     * Reconsolidation-style update (TrainableMemory::assimilate):
     * merge @p hv into the nearest existing class when its prototype
     * is within @p mergeThreshold bits, else create a new class
     * labeled @p label. Returns the class updated or created.
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
     */
    std::unique_ptr<MemorySnapshot> build() const;

    /** Timings of the most recent publish(). */
    PublishStats lastPublish() const;

  private:
    std::unique_ptr<MemorySnapshot> buildLocked() const;

    mutable std::mutex mu;
    TrainableMemory trainable;
    metrics::QueryMetrics *sink = nullptr;
    std::optional<ItemMemory> items;
    std::optional<LevelItemMemory> levels;
    PublishStats stats;
};

} // namespace hdham::snapshot

#endif // HDHAM_CORE_SNAPSHOT_HH
