#include "core/snapshot.hh"

#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

namespace hdham::snapshot
{

namespace
{

/**
 * One reader's epoch announcement, alone on its cache line so the
 * hot acquire path never false-shares with a neighbouring thread.
 *
 * epoch == 0 means quiescent; any other value is the global epoch
 * the reader observed when it began an acquire that may still be
 * dereferencing a head pointer.
 */
struct alignas(64) ReaderSlot
{
    std::atomic<std::uint64_t> epoch{0};
    std::atomic<bool> claimed{false};
};

ReaderSlot gSlots[SnapshotSource::kReaderSlots];

/**
 * Global epoch, bumped once per publish. Starts at 1 so a slot value
 * of 0 unambiguously means "quiescent".
 */
std::atomic<std::uint64_t> gEpoch{1};

/** Process-wide count of Node objects not yet freed. */
std::atomic<std::size_t> gLiveNodes{0};

/**
 * Thread-local lease on one reader slot, released (and recyclable by
 * a later thread) at thread exit. Threads beyond the pool get a null
 * slot and take the mutex fallback in acquire().
 */
struct SlotLease
{
    ReaderSlot *slot = nullptr;

    SlotLease()
    {
        for (ReaderSlot &s : gSlots) {
            bool expected = false;
            if (s.claimed.compare_exchange_strong(
                    expected, true, std::memory_order_acq_rel)) {
                slot = &s;
                return;
            }
        }
    }

    ~SlotLease()
    {
        if (slot != nullptr) {
            slot->epoch.store(0, std::memory_order_release);
            slot->claimed.store(false, std::memory_order_release);
        }
    }
};

ReaderSlot *
threadSlot()
{
    thread_local SlotLease lease;
    return lease.slot;
}

double
microsBetween(std::chrono::steady_clock::time_point a,
              std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

} // namespace

namespace detail
{

Node::Node(std::unique_ptr<const MemorySnapshot> s)
    : snap(std::move(s))
{
    gLiveNodes.fetch_add(1, std::memory_order_relaxed);
}

Node::~Node()
{
    gLiveNodes.fetch_sub(1, std::memory_order_relaxed);
}

void
ref(Node *node)
{
    node->refs.fetch_add(1, std::memory_order_relaxed);
}

void
unref(Node *node)
{
    if (node->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
        delete node;
}

} // namespace detail

// ---------------------------------------------------------------------------
// MemorySnapshot
// ---------------------------------------------------------------------------

MemorySnapshot::MemorySnapshot(AssociativeMemory &&ownedMem,
                               const Options &opts,
                               std::optional<ItemMemory> im,
                               std::optional<LevelItemMemory> lm)
    : owned(std::move(ownedMem)), items(std::move(im)),
      levels(std::move(lm))
{
    owned->setScanPolicy(opts.policy);
    owned->attachMetrics(opts.sink);
    mem = &*owned;
}

MemorySnapshot::MemorySnapshot(modelfile::ModelView &&mapped,
                               const Options &opts)
    : view(std::move(mapped))
{
    view->memory().setScanPolicy(opts.policy);
    view->memory().attachMetrics(opts.sink);
    // Side memories are materialized (copied out of the mapping) so
    // an encoder built on them never depends on page residency.
    if (view->hasItemMemory())
        items = view->itemMemory();
    if (view->hasLevelMemory())
        levels = view->levelMemory();
    mem = &std::as_const(*view).memory();
}

std::unique_ptr<MemorySnapshot>
MemorySnapshot::fromMemory(AssociativeMemory &&am,
                           const Options &opts,
                           std::optional<ItemMemory> items,
                           std::optional<LevelItemMemory> levels)
{
    return std::unique_ptr<MemorySnapshot>(
        new MemorySnapshot(std::move(am), opts, std::move(items),
                           std::move(levels)));
}

std::unique_ptr<MemorySnapshot>
MemorySnapshot::fromView(modelfile::ModelView &&view,
                         const Options &opts)
{
    return std::unique_ptr<MemorySnapshot>(
        new MemorySnapshot(std::move(view), opts));
}

// ---------------------------------------------------------------------------
// SnapshotSource
// ---------------------------------------------------------------------------

SnapshotSource::~SnapshotSource()
{
    detail::Node *old =
        head.exchange(nullptr, std::memory_order_acq_rel);
    if (old != nullptr)
        detail::unref(old);
}

SnapshotRef
SnapshotSource::acquire() const
{
    ReaderSlot *slot = threadSlot();
    if (slot == nullptr) {
        // Slot pool exhausted: share the swap's mutex so the head
        // load and the reference increment are one atomic step with
        // respect to publish(). Correct, merely not lock-free.
        std::lock_guard<std::mutex> lock(fallbackMu);
        detail::Node *n = head.load(std::memory_order_acquire);
        if (n == nullptr)
            return SnapshotRef();
        detail::ref(n);
        return SnapshotRef(n);
    }

    // Announce intent before touching head. All four racing
    // operations (this store, the head load below, the writer's head
    // exchange and its slot scan) are seq_cst, so they have one total
    // order: if the writer's scan reads this slot as 0, our head load
    // is ordered after its exchange and saw the *new* head -- the old
    // snapshot it is about to release is not the one we pinned.
    const std::uint64_t e = gEpoch.load(std::memory_order_seq_cst);
    slot->epoch.store(e, std::memory_order_seq_cst);
    detail::Node *n = head.load(std::memory_order_seq_cst);
    if (n == nullptr) {
        slot->epoch.store(0, std::memory_order_release);
        return SnapshotRef();
    }
    n->refs.fetch_add(1, std::memory_order_relaxed);
    // Release-store: a writer that observes the 0 also observes the
    // reference we just took.
    slot->epoch.store(0, std::memory_order_release);
    return SnapshotRef(n);
}

std::uint64_t
SnapshotSource::publish(std::unique_ptr<MemorySnapshot> snap)
{
    if (snap == nullptr)
        throw std::invalid_argument(
            "SnapshotSource::publish: null snapshot");
    std::lock_guard<std::mutex> writer(writerMu);

    const std::uint64_t seq =
        swapCount.load(std::memory_order_relaxed) + 1;
    snap->seq = seq;
    auto *node = new detail::Node(
        std::unique_ptr<const MemorySnapshot>(std::move(snap)));

    detail::Node *old = nullptr;
    {
        // Shared with the fallback acquire path so a slotless
        // reader's load+ref pair cannot straddle the swap.
        std::lock_guard<std::mutex> lock(fallbackMu);
        old = head.exchange(node, std::memory_order_seq_cst);
    }
    swapCount.store(seq, std::memory_order_relaxed);

    // Epoch grace period: wait until every reader slot is quiescent
    // or provably began its acquire after the swap. Each wait is at
    // most one in-flight acquire (a handful of instructions), so this
    // resolves in microseconds; readers never notice.
    const std::uint64_t postEpoch =
        gEpoch.fetch_add(1, std::memory_order_seq_cst) + 1;
    if (old != nullptr) {
        for (ReaderSlot &s : gSlots) {
            for (;;) {
                const std::uint64_t e =
                    s.epoch.load(std::memory_order_seq_cst);
                if (e == 0 || e >= postEpoch)
                    break;
                std::this_thread::yield();
            }
        }
        // Release the publication reference; the snapshot retires
        // now or when its last pinned reader drops.
        detail::unref(old);
    }
    return seq;
}

std::size_t
SnapshotSource::liveSnapshots()
{
    return gLiveNodes.load(std::memory_order_acquire);
}

// ---------------------------------------------------------------------------
// SnapshotBuilder
// ---------------------------------------------------------------------------

SnapshotBuilder::SnapshotBuilder(std::size_t dim, std::uint64_t seed)
    : trainable(dim, seed)
{
}

SnapshotBuilder::SnapshotBuilder(const MemorySnapshot &seedSnapshot,
                                 std::uint64_t seed)
    : trainable(seedSnapshot.dim(), seed)
{
    const AssociativeMemory &am = seedSnapshot.memory();
    for (std::size_t id = 0; id < am.size(); ++id) {
        const std::size_t cls = trainable.addClass(am.labelOf(id));
        trainable.addSample(cls, am.vectorOf(id));
    }
    policy = am.scanPolicy();
    sink = am.metricsSink();
    if (seedSnapshot.hasItemMemory())
        items = seedSnapshot.itemMemory();
    if (seedSnapshot.hasLevelMemory())
        levels = seedSnapshot.levelMemory();
}

std::size_t
SnapshotBuilder::dim() const
{
    std::lock_guard<std::mutex> lock(mu);
    return trainable.dim();
}

std::size_t
SnapshotBuilder::classes() const
{
    std::lock_guard<std::mutex> lock(mu);
    return trainable.classes();
}

std::size_t
SnapshotBuilder::addClass(std::string label)
{
    std::lock_guard<std::mutex> lock(mu);
    return trainable.addClass(std::move(label));
}

std::string
SnapshotBuilder::labelOf(std::size_t id) const
{
    std::lock_guard<std::mutex> lock(mu);
    return trainable.labelOf(id);
}

void
SnapshotBuilder::addSample(std::size_t id, const Hypervector &hv)
{
    std::lock_guard<std::mutex> lock(mu);
    trainable.addSample(id, hv);
}

std::size_t
SnapshotBuilder::addLabeledSample(const std::string &label,
                                  const Hypervector &hv)
{
    std::lock_guard<std::mutex> lock(mu);
    std::size_t id = 0;
    while (id < trainable.classes() && trainable.labelOf(id) != label)
        ++id;
    if (id == trainable.classes())
        id = trainable.addClass(label);
    trainable.addSample(id, hv);
    return id;
}

std::uint64_t
SnapshotBuilder::sampleCount(std::size_t id) const
{
    std::lock_guard<std::mutex> lock(mu);
    return trainable.sampleCount(id);
}

std::size_t
SnapshotBuilder::assimilate(const Hypervector &hv,
                            const std::string &label,
                            std::size_t mergeThreshold)
{
    std::lock_guard<std::mutex> lock(mu);
    return trainable.assimilate(hv, label, mergeThreshold);
}

void
SnapshotBuilder::setScanPolicy(const ScanPolicy &p)
{
    std::lock_guard<std::mutex> lock(mu);
    policy = p;
}

void
SnapshotBuilder::attachMetrics(metrics::QueryMetrics *m)
{
    std::lock_guard<std::mutex> lock(mu);
    sink = m;
}

std::uint64_t
SnapshotBuilder::publish(SnapshotSource &source)
{
    std::lock_guard<std::mutex> lock(mu);
    const auto t0 = std::chrono::steady_clock::now();
    std::unique_ptr<MemorySnapshot> snap = buildLocked();
    const auto t1 = std::chrono::steady_clock::now();
    const std::uint64_t seq = source.publish(std::move(snap));
    const auto t2 = std::chrono::steady_clock::now();
    stats.sequence = seq;
    stats.buildUs = microsBetween(t0, t1);
    stats.swapUs = microsBetween(t1, t2);
    return seq;
}

std::unique_ptr<MemorySnapshot>
SnapshotBuilder::build() const
{
    std::lock_guard<std::mutex> lock(mu);
    return buildLocked();
}

SnapshotBuilder::PublishStats
SnapshotBuilder::lastPublish() const
{
    std::lock_guard<std::mutex> lock(mu);
    return stats;
}

std::unique_ptr<MemorySnapshot>
SnapshotBuilder::buildLocked() const
{
    AssociativeMemory am = trainable.snapshot();
    MemorySnapshot::Options opts;
    opts.policy = policy;
    opts.sink = sink;
    return MemorySnapshot::fromMemory(std::move(am), opts, items,
                                      levels);
}

} // namespace hdham::snapshot
