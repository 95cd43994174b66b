/**
 * @file
 * Lifecycle suite for the immutable epoch-swapped snapshot layer.
 *
 * Pins the ownership contract of core/snapshot.hh: publication holds
 * one reference and each SnapshotRef one more; a retired snapshot is
 * freed exactly when its last in-flight reference drops; the builder
 * reproduces its seed store bit for bit; concurrent labeled adds
 * create each new class once; and a model opened through the shared
 * loader serves identically to the in-RAM store it was saved from.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <barrier>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/model_file.hh"
#include "core/model_loader.hh"
#include "core/random.hh"
#include "core/snapshot.hh"
#include "core/trainable_memory.hh"

namespace
{

using hdham::AssociativeMemory;
using hdham::Hypervector;
using hdham::ItemMemory;
using hdham::Rng;
using hdham::TrainableMemory;
using hdham::modelload::LoadedModel;
using hdham::snapshot::MemorySnapshot;
using hdham::snapshot::SnapshotBuilder;
using hdham::snapshot::SnapshotRef;
using hdham::snapshot::SnapshotSource;

constexpr std::size_t kDim = 512;

AssociativeMemory
randomMemory(std::size_t classes, std::uint64_t seed)
{
    Rng rng(seed);
    AssociativeMemory am(kDim);
    for (std::size_t i = 0; i < classes; ++i)
        am.store(Hypervector::random(kDim, rng),
                 "class" + std::to_string(i));
    return am;
}

/** Scoped temp file that cleans up after itself. */
struct TempFile
{
    explicit TempFile(const std::string &name)
        : path(::testing::TempDir() + std::to_string(::getpid()) + "_" +
               name)
    {
    }
    ~TempFile() { std::remove(path.c_str()); }
    std::string path;
};

TEST(SnapshotSourceTest, EmptyBeforeFirstPublish)
{
    SnapshotSource source;
    EXPECT_FALSE(source.hasSnapshot());
    const SnapshotRef ref = source.acquire();
    EXPECT_FALSE(static_cast<bool>(ref));
    EXPECT_EQ(source.swaps(), 0u);
}

TEST(SnapshotSourceTest, PublishStampsSequenceNumbers)
{
    SnapshotSource source;
    EXPECT_EQ(source.publish(
                  MemorySnapshot::fromMemory(randomMemory(3, 1))),
              1u);
    EXPECT_EQ(source.acquire()->sequence(), 1u);
    EXPECT_EQ(source.publish(
                  MemorySnapshot::fromMemory(randomMemory(3, 2))),
              2u);
    EXPECT_EQ(source.acquire()->sequence(), 2u);
    EXPECT_EQ(source.swaps(), 2u);
}

TEST(SnapshotSourceTest, RetiredSnapshotLivesUntilLastRefDrops)
{
    const std::size_t baseline = SnapshotSource::liveSnapshots();
    SnapshotSource source;
    source.publish(MemorySnapshot::fromMemory(randomMemory(3, 1)));
    EXPECT_EQ(SnapshotSource::liveSnapshots(), baseline + 1);

    SnapshotRef pinned = source.acquire();
    ASSERT_TRUE(static_cast<bool>(pinned));
    EXPECT_EQ(pinned->sequence(), 1u);

    // Swapping retires snapshot 1 from the source, but the pin keeps
    // it alive -- and still fully usable.
    source.publish(MemorySnapshot::fromMemory(randomMemory(4, 2)));
    EXPECT_EQ(SnapshotSource::liveSnapshots(), baseline + 2);
    EXPECT_EQ(pinned->sequence(), 1u);
    EXPECT_EQ(pinned->classes(), 3u);

    pinned.reset();
    EXPECT_EQ(SnapshotSource::liveSnapshots(), baseline + 1);
}

TEST(SnapshotSourceTest, ClonedRefsEachHoldTheSnapshot)
{
    const std::size_t baseline = SnapshotSource::liveSnapshots();
    SnapshotSource source;
    source.publish(MemorySnapshot::fromMemory(randomMemory(2, 7)));
    SnapshotRef a = source.acquire();
    SnapshotRef b = a.clone();
    source.publish(MemorySnapshot::fromMemory(randomMemory(2, 8)));
    a.reset();
    EXPECT_EQ(SnapshotSource::liveSnapshots(), baseline + 2);
    EXPECT_EQ(b->sequence(), 1u);
    b.reset();
    EXPECT_EQ(SnapshotSource::liveSnapshots(), baseline + 1);
}

TEST(SnapshotSourceTest, PinnedRefOutlivesTheSource)
{
    const std::size_t baseline = SnapshotSource::liveSnapshots();
    SnapshotRef pinned;
    {
        SnapshotSource source;
        source.publish(
            MemorySnapshot::fromMemory(randomMemory(3, 9)));
        pinned = source.acquire();
    }
    EXPECT_EQ(SnapshotSource::liveSnapshots(), baseline + 1);
    EXPECT_EQ(pinned->classes(), 3u);
    pinned.reset();
    EXPECT_EQ(SnapshotSource::liveSnapshots(), baseline);
}

TEST(SnapshotTest, FreezesSink)
{
    hdham::metrics::QueryMetrics sink;
    MemorySnapshot::Options opts;
    opts.sink = &sink;
    const auto snap =
        MemorySnapshot::fromMemory(randomMemory(5, 3), opts);
    EXPECT_EQ(snap->memory().metricsSink(), &sink);

    Rng rng(11);
    snap->memory().search(Hypervector::random(kDim, rng));
    EXPECT_EQ(sink.queries.value(), 1u);
}

TEST(SnapshotTest, CarriesSideMemories)
{
    ItemMemory items(27, kDim, 0xabcdULL);
    const auto snap = MemorySnapshot::fromMemory(
        randomMemory(3, 4), {}, std::move(items));
    ASSERT_TRUE(snap->hasItemMemory());
    EXPECT_EQ(snap->itemMemory().size(), 27u);
    EXPECT_FALSE(snap->hasLevelMemory());
    EXPECT_FALSE(snap->mapped());
    EXPECT_EQ(snap->modelPath(), "");
}

TEST(SnapshotBuilderTest, ReproducesTrainableMemoryExactly)
{
    Rng rng(21);
    TrainableMemory trainable(kDim, 99);
    SnapshotBuilder builder(kDim, 99);
    for (std::size_t c = 0; c < 4; ++c) {
        trainable.addClass("c" + std::to_string(c));
        builder.addClass("c" + std::to_string(c));
        for (int s = 0; s < 3; ++s) {
            const Hypervector hv = Hypervector::random(kDim, rng);
            trainable.addSample(c, hv);
            builder.addSample(c, hv);
        }
    }
    const AssociativeMemory expected = trainable.snapshot();
    const auto snap = builder.build();
    ASSERT_EQ(snap->classes(), expected.size());
    for (std::size_t c = 0; c < expected.size(); ++c) {
        EXPECT_EQ(snap->memory().vectorOf(c).hamming(
                      expected.vectorOf(c)),
                  0u)
            << "class " << c;
        EXPECT_EQ(snap->memory().labelOf(c), expected.labelOf(c));
    }
}

TEST(SnapshotBuilderTest, SeededFromSnapshotIsBitIdentical)
{
    const AssociativeMemory seedMem = randomMemory(6, 31);
    const auto seedSnap = MemorySnapshot::fromMemory(
        randomMemory(6, 31), {},
        ItemMemory(27, kDim, 0x11ULL));
    SnapshotBuilder builder(*seedSnap);
    EXPECT_EQ(builder.dim(), kDim);
    EXPECT_EQ(builder.classes(), 6u);
    const auto rebuilt = builder.build();
    ASSERT_EQ(rebuilt->classes(), seedMem.size());
    for (std::size_t c = 0; c < seedMem.size(); ++c) {
        EXPECT_EQ(rebuilt->memory().vectorOf(c).hamming(
                      seedMem.vectorOf(c)),
                  0u)
            << "class " << c;
        EXPECT_EQ(rebuilt->memory().labelOf(c),
                  seedMem.labelOf(c));
    }
    // Side memories ride along into every future publish.
    EXPECT_TRUE(rebuilt->hasItemMemory());
}

TEST(SnapshotBuilderTest, PublishRecordsStats)
{
    Rng rng(41);
    SnapshotSource source;
    SnapshotBuilder builder(kDim);
    builder.addClass("a");
    builder.addSample(0, Hypervector::random(kDim, rng));
    EXPECT_EQ(builder.publish(source), 1u);
    const SnapshotBuilder::PublishStats stats =
        builder.lastPublish();
    EXPECT_EQ(stats.sequence, 1u);
    EXPECT_GE(stats.buildUs, 0.0);
    EXPECT_GE(stats.swapUs, 0.0);
    EXPECT_EQ(source.acquire()->classes(), 1u);
}

TEST(SnapshotBuilderTest, ConcurrentLabeledAddsCreateEachClassOnce)
{
    // Existing classes make each label lookup a long scan: the window
    // a lookup-then-create race needs. Rounds make a race likely to
    // show even when the writers rarely run at the same time.
    constexpr std::size_t kExisting = 64;
    constexpr std::size_t kLabels = 64;
    constexpr std::size_t kWriters = 4;
    constexpr int kRounds = 32;
    Rng rng(101);
    const Hypervector sample = Hypervector::random(kDim, rng);
    for (int round = 0; round < kRounds; ++round) {
        SnapshotBuilder builder(kDim);
        for (std::size_t c = 0; c < kExisting; ++c) {
            builder.addClass("old" + std::to_string(c));
            builder.addSample(c, sample);
        }
        // An existing label is found, not duplicated.
        ASSERT_EQ(builder.addLabeledSample("old3", sample), 3u);

        // Every writer adds the same new label at once, label by
        // label: the lookup and the create must be one step, or two
        // writers both create "newN".
        std::barrier sync(kWriters);
        std::vector<std::thread> writers;
        for (std::size_t w = 0; w < kWriters; ++w) {
            writers.emplace_back([&] {
                for (std::size_t l = 0; l < kLabels; ++l) {
                    sync.arrive_and_wait();
                    builder.addLabeledSample("new" + std::to_string(l),
                                             sample);
                }
            });
        }
        for (std::thread &w : writers)
            w.join();

        ASSERT_EQ(builder.classes(), kExisting + kLabels)
            << "round " << round;
        EXPECT_EQ(builder.sampleCount(3), 2u);
        for (std::size_t id = kExisting; id < kExisting + kLabels; ++id)
            EXPECT_EQ(builder.sampleCount(id), kWriters) << "class " << id;
    }
}

TEST(TrainableAssimilateTest, MergesWithinThresholdElseCreates)
{
    Rng rng(51);
    TrainableMemory trainable(kDim, 7);
    const Hypervector proto = Hypervector::random(kDim, rng);
    trainable.addClass("seed");
    trainable.addSample(0, proto);

    // A near-duplicate (flip a handful of bits) merges into class 0.
    Hypervector near = proto;
    // Flipping via rebundle: XOR with a sparse flip mask built from
    // the prototype itself is overkill; construct from words.
    std::vector<std::uint64_t> words(proto.data(),
                                     proto.data() + proto.words());
    words[0] ^= 0x7ULL; // 3 bits away
    near = Hypervector::fromWords(kDim, words.data());
    EXPECT_EQ(trainable.assimilate(near, "ignored", 10), 0u);
    EXPECT_EQ(trainable.classes(), 1u);
    EXPECT_EQ(trainable.sampleCount(0), 2u);

    // A far vector (expected distance ~kDim/2) exceeds the threshold
    // and creates a new labeled class.
    const Hypervector far = Hypervector::random(kDim, rng);
    const std::size_t id = trainable.assimilate(far, "novel", 10);
    EXPECT_EQ(id, 1u);
    EXPECT_EQ(trainable.labelOf(1), "novel");
    EXPECT_EQ(trainable.sampleCount(1), 1u);

    Rng other(5);
    EXPECT_THROW(trainable.assimilate(
                     Hypervector::random(kDim / 2, other), "x", 1),
                 std::invalid_argument);
}

TEST(TrainableAssimilateTest, TiesResolveToLowestClassId)
{
    Rng rng(61);
    TrainableMemory trainable(kDim, 7);
    const Hypervector proto = Hypervector::random(kDim, rng);
    // Two identical prototypes: the merge must pick class 0.
    trainable.addClass("first");
    trainable.addSample(0, proto);
    trainable.addClass("second");
    trainable.addSample(1, proto);
    EXPECT_EQ(trainable.assimilate(proto, "x", 0), 0u);
}

TEST(SnapshotFileTest, FromFileServesBothFormatsIdentically)
{
    const AssociativeMemory original = randomMemory(8, 71);
    TempFile v1("snapshot_test_model_v1.hdc");
    hdham::modelfile::save(v1.path, original);

    const auto mappedSnap =
        LoadedModel::open(v1.path).intoSnapshot();
    EXPECT_TRUE(mappedSnap->mapped());
    EXPECT_EQ(mappedSnap->modelPath(), v1.path);

    Rng rng(81);
    for (int q = 0; q < 16; ++q) {
        const Hypervector query = Hypervector::random(kDim, rng);
        const auto expected = original.search(query);
        const auto fromMapped = mappedSnap->memory().search(query);
        EXPECT_EQ(fromMapped.classId, expected.classId);
        EXPECT_EQ(fromMapped.bestDistance, expected.bestDistance);
    }
}

TEST(SnapshotFileTest, MappedSnapshotSurvivesPublishCycle)
{
    const std::size_t baseline = SnapshotSource::liveSnapshots();
    const AssociativeMemory original = randomMemory(5, 91);
    TempFile file("snapshot_test_mapped_publish.hdc");
    hdham::modelfile::save(file.path, original);

    SnapshotSource source;
    source.publish(LoadedModel::open(file.path).intoSnapshot());
    SnapshotRef pinned = source.acquire();
    EXPECT_TRUE(pinned->mapped());

    // Seed a builder from the mapped model, grow it, publish: the
    // mapped snapshot stays pinned and readable while retired.
    SnapshotBuilder builder(*pinned);
    Rng rng(92);
    const std::size_t id = builder.addClass("extra");
    builder.addSample(id, Hypervector::random(kDim, rng));
    builder.publish(source);

    EXPECT_EQ(source.acquire()->classes(), 6u);
    EXPECT_EQ(pinned->classes(), 5u);
    Rng qrng(93);
    const Hypervector query = Hypervector::random(kDim, qrng);
    EXPECT_EQ(pinned->memory().search(query).classId,
              original.search(query).classId);
    pinned.reset();
    EXPECT_EQ(SnapshotSource::liveSnapshots(), baseline + 1);
}

} // namespace
