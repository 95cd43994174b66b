/**
 * @file
 * Lifecycle suite for the immutable, shared_ptr-published snapshot
 * layer.
 *
 * Pins the ownership contract of core/snapshot.hh: publication holds
 * one reference and each SnapshotRef one more; a retired snapshot is
 * freed exactly when its last in-flight reference drops; the builder
 * keeps each class's running majority, draws every tie from one
 * stream, refuses a sample of another dimension before changing
 * anything, and reproduces its seed store bit for bit; concurrent
 * labeled adds create each new class once; and a model opened
 * through the shared loader serves identically to the in-RAM store
 * it was saved from.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/bundler.hh"
#include "core/model_file.hh"
#include "core/model_loader.hh"
#include "core/random.hh"
#include "core/snapshot.hh"

namespace
{

using hdham::AssociativeMemory;
using hdham::Bundler;
using hdham::Hypervector;
using hdham::ItemMemory;
using hdham::Rng;
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
    SnapshotRef b = a;
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

TEST(SnapshotSourceTest, ConcurrentPublishersStampEachSequenceOnce)
{
    // Two writers publish into one source while readers keep pinning:
    // the stamps must be one gapless run, each reader must see them in
    // order, and every retired snapshot must be freed once unpinned.
    constexpr std::size_t kPublishers = 2;
    constexpr std::size_t kPerPublisher = 100;
    constexpr std::size_t kReaders = 4;
    const std::size_t baseline = SnapshotSource::liveSnapshots();
    SnapshotSource source;

    std::atomic<bool> publishing{true};
    std::vector<std::size_t> regressions(kReaders, 0);
    std::vector<std::thread> readers;
    for (std::size_t r = 0; r < kReaders; ++r) {
        readers.emplace_back([&, r] {
            std::uint64_t last = 0;
            while (publishing.load(std::memory_order_acquire)) {
                const SnapshotRef pin = source.acquire();
                if (!pin)
                    continue;
                if (pin->sequence() < last)
                    ++regressions[r];
                last = pin->sequence();
            }
        });
    }

    std::vector<std::vector<std::uint64_t>> stamped(kPublishers);
    std::vector<std::thread> publishers;
    for (std::size_t p = 0; p < kPublishers; ++p) {
        publishers.emplace_back([&, p] {
            for (std::size_t i = 0; i < kPerPublisher; ++i)
                stamped[p].push_back(source.publish(
                    MemorySnapshot::fromMemory(
                        randomMemory(2, 1000 * p + i))));
        });
    }
    for (std::thread &t : publishers)
        t.join();
    publishing.store(false, std::memory_order_release);
    for (std::thread &t : readers)
        t.join();

    std::vector<std::uint64_t> all;
    for (const std::vector<std::uint64_t> &s : stamped)
        all.insert(all.end(), s.begin(), s.end());
    std::sort(all.begin(), all.end());
    ASSERT_EQ(all.size(), kPublishers * kPerPublisher);
    for (std::size_t i = 0; i < all.size(); ++i)
        EXPECT_EQ(all[i], i + 1);
    EXPECT_EQ(source.swaps(), kPublishers * kPerPublisher);
    EXPECT_EQ(source.acquire()->sequence(), kPublishers * kPerPublisher);
    for (std::size_t r = 0; r < kReaders; ++r)
        EXPECT_EQ(regressions[r], 0u) << "reader " << r;
    EXPECT_EQ(SnapshotSource::liveSnapshots(), baseline + 1);
}

TEST(SnapshotTest, FreezesSink)
{
    hdham::metrics::QueryMetrics sink;
    const auto snap =
        MemorySnapshot::fromMemory(randomMemory(5, 3), &sink);
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

TEST(SnapshotBuilderTest, RejectsZeroDimension)
{
    EXPECT_THROW(SnapshotBuilder{0}, std::invalid_argument);
}

TEST(SnapshotBuilderTest, ClassBookkeeping)
{
    SnapshotBuilder builder(256);
    EXPECT_EQ(builder.classes(), 0u);
    EXPECT_EQ(builder.addClass("alpha"), 0u);
    EXPECT_EQ(builder.addClass("beta"), 1u);
    EXPECT_EQ(builder.classes(), 2u);
    EXPECT_EQ(builder.labelOf(1), "beta");
    EXPECT_EQ(builder.sampleCount(0), 0u);
}

TEST(SnapshotBuilderTest, ValidatesSamples)
{
    SnapshotBuilder builder(256);
    builder.addClass();
    Rng rng(1);
    EXPECT_THROW(builder.addSample(3, Hypervector::random(256, rng)),
                 std::invalid_argument);
    EXPECT_THROW(builder.build(), std::logic_error);
}

TEST(SnapshotBuilderTest, RejectsWrongDimensionChangingNothing)
{
    // A shorter sample would be read past its end by the counters, a
    // longer one silently truncated: both are refused, naming both
    // dimensions, before a class, label or counter changes.
    SnapshotBuilder builder(kDim);
    Rng rng(111);
    builder.addClass("a");
    builder.addSample(0, Hypervector::random(kDim, rng));
    for (const std::size_t dim : {kDim / 2 - 1, kDim * 2}) {
        const Hypervector wrong = Hypervector::random(dim, rng);
        const std::string message =
            ": sample dimension " + std::to_string(dim) +
            " does not match the store's dimension " +
            std::to_string(kDim);
        const auto expectRejected = [&](const auto &add,
                                        const std::string &what) {
            try {
                add();
                ADD_FAILURE() << what << " took a " << dim
                              << "-bit sample";
            } catch (const std::invalid_argument &e) {
                EXPECT_EQ(std::string(e.what()), what + message);
            }
            EXPECT_EQ(builder.classes(), 1u) << what;
            EXPECT_EQ(builder.sampleCount(0), 1u) << what;
        };
        expectRejected([&] { builder.addSample(0, wrong); },
                       "SnapshotBuilder::addSample");
        expectRejected([&] { builder.addLabeledSample("a", wrong); },
                       "SnapshotBuilder::addLabeledSample");
        expectRejected([&] { builder.addLabeledSample("b", wrong); },
                       "SnapshotBuilder::addLabeledSample");
        expectRejected([&] { builder.assimilate(wrong, "b", kDim); },
                       "SnapshotBuilder::assimilate");
    }
}

TEST(SnapshotBuilderTest, SingleSamplePrototypeIsTheSample)
{
    SnapshotBuilder builder(512);
    const std::size_t id = builder.addClass("x");
    Rng rng(2);
    const Hypervector hv = Hypervector::random(512, rng);
    builder.addSample(id, hv);
    EXPECT_EQ(builder.build()->memory().vectorOf(id), hv);
    EXPECT_EQ(builder.sampleCount(id), 1u);
}

TEST(SnapshotBuilderTest, PrototypeIsTheRunningMajority)
{
    SnapshotBuilder builder(1024);
    const std::size_t id = builder.addClass();
    Rng rng(3);
    const Hypervector base = Hypervector::random(1024, rng);
    for (int i = 0; i < 5; ++i) {
        Hypervector noisy = base;
        noisy.injectErrors(100, rng);
        builder.addSample(id, noisy);
    }
    // Majority of five noisy copies is closer to the base than any
    // single copy's expected 100 bits.
    EXPECT_LT(builder.build()->memory().vectorOf(id).hamming(base), 60u);
}

TEST(SnapshotBuilderTest, SnapshotMatchesPrototypes)
{
    SnapshotBuilder builder(512);
    Rng rng(4);
    for (int c = 0; c < 4; ++c) {
        const std::size_t id =
            builder.addClass("c" + std::to_string(c));
        builder.addSample(id, Hypervector::random(512, rng));
    }
    const auto snap = builder.build();
    const AssociativeMemory &am = snap->memory();
    ASSERT_EQ(am.size(), 4u);
    for (std::size_t id = 0; id < 4; ++id) {
        EXPECT_EQ(am.vectorOf(id), builder.build()->memory().vectorOf(id));
        EXPECT_EQ(am.labelOf(id), "c" + std::to_string(id));
    }
}

TEST(SnapshotBuilderTest, ReproducesTrainableMemoryExactly)
{
    // Every row is its class's running majority, with the ties of
    // all classes drawn in class order from one Rng seeded as the
    // builder is. An even sample count leaves ties to draw.
    Rng rng(21);
    std::vector<Bundler> counters;
    SnapshotBuilder builder(kDim, 99);
    for (std::size_t c = 0; c < 4; ++c) {
        counters.emplace_back(kDim);
        builder.addClass("c" + std::to_string(c));
        for (int s = 0; s < 4; ++s) {
            const Hypervector hv = Hypervector::random(kDim, rng);
            counters[c].add(hv);
            builder.addSample(c, hv);
        }
    }
    Rng ties(99);
    const auto snap = builder.build();
    ASSERT_EQ(snap->classes(), counters.size());
    for (std::size_t c = 0; c < counters.size(); ++c) {
        EXPECT_EQ(snap->memory().vectorOf(c).hamming(
                      counters[c].majority(ties)),
                  0u)
            << "class " << c;
        EXPECT_EQ(snap->memory().labelOf(c), "c" + std::to_string(c));
    }
}

TEST(SnapshotBuilderTest, AssimilateDrawsFromThePublishStream)
{
    // assimilate() thresholds every trained class to compare, and
    // those ties come from the stream build() and publish() draw
    // from: the rows built afterwards take the draws that follow.
    Rng rng(23);
    std::vector<Bundler> counters;
    SnapshotBuilder builder(kDim, 77);
    for (std::size_t c = 0; c < 3; ++c) {
        counters.emplace_back(kDim);
        builder.addClass("c" + std::to_string(c));
        for (int s = 0; s < 2; ++s) {
            const Hypervector hv = Hypervector::random(kDim, rng);
            counters[c].add(hv);
            builder.addSample(c, hv);
        }
    }
    const Hypervector far = Hypervector::random(kDim, rng);
    ASSERT_EQ(builder.assimilate(far, "novel", 0), 3u);

    Rng ties(77);
    for (const Bundler &counter : counters)
        counter.majority(ties);
    counters.emplace_back(kDim);
    counters.back().add(far);
    const auto snap = builder.build();
    ASSERT_EQ(snap->classes(), counters.size());
    for (std::size_t c = 0; c < counters.size(); ++c)
        EXPECT_EQ(snap->memory().vectorOf(c).hamming(
                      counters[c].majority(ties)),
                  0u)
            << "class " << c;
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
    SnapshotBuilder builder(kDim, 7);
    const Hypervector proto = Hypervector::random(kDim, rng);
    builder.addClass("seed");
    builder.addSample(0, proto);

    // A near-duplicate (flip a handful of bits) merges into class 0.
    Hypervector near = proto;
    // Flipping via rebundle: XOR with a sparse flip mask built from
    // the prototype itself is overkill; construct from words.
    std::vector<std::uint64_t> words(proto.data(),
                                     proto.data() + proto.words());
    words[0] ^= 0x7ULL; // 3 bits away
    near = Hypervector::fromWords(kDim, words.data());
    EXPECT_EQ(builder.assimilate(near, "ignored", 10), 0u);
    EXPECT_EQ(builder.classes(), 1u);
    EXPECT_EQ(builder.sampleCount(0), 2u);

    // A far vector (expected distance ~kDim/2) exceeds the threshold
    // and creates a new labeled class.
    const Hypervector far = Hypervector::random(kDim, rng);
    const std::size_t id = builder.assimilate(far, "novel", 10);
    EXPECT_EQ(id, 1u);
    EXPECT_EQ(builder.labelOf(1), "novel");
    EXPECT_EQ(builder.sampleCount(1), 1u);

    Rng other(5);
    EXPECT_THROW(builder.assimilate(
                     Hypervector::random(kDim / 2, other), "x", 1),
                 std::invalid_argument);
}

TEST(TrainableAssimilateTest, TiesResolveToLowestClassId)
{
    Rng rng(61);
    SnapshotBuilder builder(kDim, 7);
    const Hypervector proto = Hypervector::random(kDim, rng);
    // Two identical prototypes: the merge must pick class 0.
    builder.addClass("first");
    builder.addSample(0, proto);
    builder.addClass("second");
    builder.addSample(1, proto);
    EXPECT_EQ(builder.assimilate(proto, "x", 0), 0u);
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
