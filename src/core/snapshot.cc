#include "core/snapshot.hh"

#include <atomic>
#include <cassert>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

namespace hdham::snapshot
{

namespace
{

/** Process-wide count of published snapshots not yet freed. */
std::atomic<std::size_t> gLiveSnapshots{0};

double
microsBetween(std::chrono::steady_clock::time_point a,
              std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/** Throw unless @p hv has the store's dimension @p dim, naming both. */
void
requireSampleDim(const Hypervector &hv, std::size_t dim, const char *what)
{
    if (hv.dim() != dim)
        throw std::invalid_argument(
            std::string(what) + ": sample dimension " +
            std::to_string(hv.dim()) +
            " does not match the store's dimension " +
            std::to_string(dim));
}

} // namespace

// ---------------------------------------------------------------------------
// MemorySnapshot
// ---------------------------------------------------------------------------

MemorySnapshot::MemorySnapshot(AssociativeMemory &&ownedMem,
                               metrics::QueryMetrics *sink,
                               std::optional<ItemMemory> im,
                               std::optional<ItemMemory> lm)
    : owned(std::move(ownedMem)), items(std::move(im)),
      levels(std::move(lm))
{
    owned->attachMetrics(sink);
    mem = &*owned;
}

MemorySnapshot::MemorySnapshot(modelfile::ModelView &&mapped,
                               metrics::QueryMetrics *sink)
    : view(std::move(mapped))
{
    view->memory().attachMetrics(sink);
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
                           metrics::QueryMetrics *sink,
                           std::optional<ItemMemory> items,
                           std::optional<ItemMemory> levels)
{
    return std::unique_ptr<MemorySnapshot>(
        new MemorySnapshot(std::move(am), sink, std::move(items),
                           std::move(levels)));
}

std::unique_ptr<MemorySnapshot>
MemorySnapshot::fromView(modelfile::ModelView &&view,
                         metrics::QueryMetrics *sink)
{
    return std::unique_ptr<MemorySnapshot>(
        new MemorySnapshot(std::move(view), sink));
}

// ---------------------------------------------------------------------------
// SnapshotSource
// ---------------------------------------------------------------------------

bool
SnapshotSource::hasSnapshot() const
{
    std::lock_guard<std::mutex> lock(mu);
    return current != nullptr;
}

SnapshotRef
SnapshotSource::acquire() const
{
    std::lock_guard<std::mutex> lock(mu);
    return current;
}

std::uint64_t
SnapshotSource::publish(std::unique_ptr<MemorySnapshot> snap)
{
    if (snap == nullptr)
        throw std::invalid_argument(
            "SnapshotSource::publish: null snapshot");
    MemorySnapshot &stamped = *snap;
    // Counted from here until the last reference's deleter runs. If
    // the shared_ptr cannot allocate, it runs the deleter itself.
    gLiveSnapshots.fetch_add(1, std::memory_order_relaxed);
    SnapshotRef next(snap.release(), [](const MemorySnapshot *s) {
        delete s;
        gLiveSnapshots.fetch_sub(1, std::memory_order_release);
    });
    std::uint64_t seq = 0;
    {
        std::lock_guard<std::mutex> lock(mu);
        seq = current == nullptr ? 1 : current->sequence() + 1;
        stamped.seq = seq;
        current.swap(next);
    }
    // next now holds the replaced snapshot; it is released here,
    // after the unlock, and retires now or when its last pin drops.
    return seq;
}

std::uint64_t
SnapshotSource::swaps() const
{
    std::lock_guard<std::mutex> lock(mu);
    return current == nullptr ? 0 : current->sequence();
}

std::size_t
SnapshotSource::liveSnapshots()
{
    return gLiveSnapshots.load(std::memory_order_acquire);
}

// ---------------------------------------------------------------------------
// SnapshotBuilder
// ---------------------------------------------------------------------------

SnapshotBuilder::SnapshotBuilder(std::size_t dim, std::uint64_t seed)
    : dimension(dim), rng(seed)
{
    if (dim == 0)
        throw std::invalid_argument("SnapshotBuilder: zero dimension");
}

SnapshotBuilder::SnapshotBuilder(const MemorySnapshot &seedSnapshot,
                                 std::uint64_t seed)
    : SnapshotBuilder(seedSnapshot.dim(), seed)
{
    const AssociativeMemory &am = seedSnapshot.memory();
    for (std::size_t id = 0; id < am.size(); ++id)
        bundlers[addClassLocked(am.labelOf(id))].add(am.vectorOf(id));
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
    return dimension;
}

std::size_t
SnapshotBuilder::classes() const
{
    std::lock_guard<std::mutex> lock(mu);
    return bundlers.size();
}

std::size_t
SnapshotBuilder::addClass(std::string label)
{
    std::lock_guard<std::mutex> lock(mu);
    return addClassLocked(std::move(label));
}

std::string
SnapshotBuilder::labelOf(std::size_t id) const
{
    std::lock_guard<std::mutex> lock(mu);
    assert(id < labels.size());
    return labels[id];
}

void
SnapshotBuilder::addSample(std::size_t id, const Hypervector &hv)
{
    std::lock_guard<std::mutex> lock(mu);
    if (id >= bundlers.size())
        throw std::invalid_argument("SnapshotBuilder::addSample: "
                                    "unknown class");
    requireSampleDim(hv, dimension, "SnapshotBuilder::addSample");
    bundlers[id].add(hv);
}

std::size_t
SnapshotBuilder::addLabeledSample(const std::string &label,
                                  const Hypervector &hv)
{
    std::lock_guard<std::mutex> lock(mu);
    requireSampleDim(hv, dimension, "SnapshotBuilder::addLabeledSample");
    std::size_t id = 0;
    while (id < labels.size() && labels[id] != label)
        ++id;
    if (id == labels.size())
        id = addClassLocked(label);
    bundlers[id].add(hv);
    return id;
}

std::uint64_t
SnapshotBuilder::sampleCount(std::size_t id) const
{
    std::lock_guard<std::mutex> lock(mu);
    assert(id < bundlers.size());
    return bundlers[id].count();
}

std::size_t
SnapshotBuilder::assimilate(const Hypervector &hv,
                            const std::string &label,
                            std::size_t mergeThreshold)
{
    std::lock_guard<std::mutex> lock(mu);
    requireSampleDim(hv, dimension, "SnapshotBuilder::assimilate");
    std::size_t best = bundlers.size();
    std::size_t bestDist = 0;
    for (std::size_t id = 0; id < bundlers.size(); ++id) {
        if (bundlers[id].count() == 0)
            continue;
        const std::size_t d = prototypeLocked(id).hamming(hv);
        if (best == bundlers.size() || d < bestDist) {
            best = id;
            bestDist = d;
        }
    }
    if (best == bundlers.size() || bestDist > mergeThreshold)
        best = addClassLocked(label);
    bundlers[best].add(hv);
    return best;
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

std::size_t
SnapshotBuilder::addClassLocked(std::string label)
{
    bundlers.emplace_back(dimension);
    labels.push_back(std::move(label));
    return bundlers.size() - 1;
}

Hypervector
SnapshotBuilder::prototypeLocked(std::size_t id) const
{
    if (bundlers[id].count() == 0)
        throw std::logic_error("SnapshotBuilder: class " +
                               std::to_string(id) + " has no samples");
    return bundlers[id].majority(rng);
}

std::unique_ptr<MemorySnapshot>
SnapshotBuilder::buildLocked() const
{
    AssociativeMemory am(dimension);
    am.reserve(bundlers.size());
    for (std::size_t id = 0; id < bundlers.size(); ++id)
        am.store(prototypeLocked(id), labels[id]);
    return MemorySnapshot::fromMemory(std::move(am), sink, items, levels);
}

} // namespace hdham::snapshot
