/**
 * @file
 * Save -> mmap-load round-trip property: for random models at both a
 * ragged and an aligned dimensionality, the mapped view answers
 * nearest / top-k / batched searches bit-identically to the in-RAM
 * original -- and drives the scan counters to the exact same values,
 * since the counters are part of the documented determinism
 * contract.
 *
 * The suite runs twice in ctest: once under the default runtime
 * kernel dispatch and once pinned to the scalar kernel
 * (HDHAM_KERNEL=scalar), so a SIMD-path divergence on mapped memory
 * cannot hide behind matching scalar results.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/assoc_memory.hh"
#include "core/item_memory.hh"
#include "core/metrics.hh"
#include "core/model_file.hh"
#include "core/model_loader.hh"
#include "core/random.hh"

namespace
{

using hdham::AssociativeMemory;
using hdham::Hypervector;
using hdham::RankedMatch;
using hdham::Rng;
using hdham::SearchResult;
namespace metrics = hdham::metrics;
namespace modelfile = hdham::modelfile;

AssociativeMemory
buildModel(std::size_t dim, std::size_t classes, Rng &rng)
{
    AssociativeMemory am(dim);
    am.reserve(classes);
    for (std::size_t id = 0; id < classes; ++id) {
        std::string label = "c";
        label += std::to_string(id);
        am.store(Hypervector::random(dim, rng), std::move(label));
    }
    return am;
}

std::string
savedTo(const std::string &name, const AssociativeMemory &am)
{
    const std::string path = ::testing::TempDir() +
                             std::to_string(::getpid()) + "_" + name;
    modelfile::save(path, am);
    return path;
}

void
expectSameResult(const SearchResult &got, const SearchResult &want,
                 const std::string &where)
{
    EXPECT_EQ(got.classId, want.classId) << where;
    EXPECT_EQ(got.bestDistance, want.bestDistance) << where;
}

TEST(ModelRoundTripPropertyTest, MappedSearchesAreBitIdentical)
{
    Rng rng(0x50F7C0DEULL);
    for (const std::size_t dim : {250u, 1000u}) {
        const std::string where = "d" + std::to_string(dim);
        const AssociativeMemory am = buildModel(dim, 17, rng);
        const std::string path =
            savedTo("rt_" + std::to_string(dim) + ".hdc", am);
        modelfile::ModelView view(path);
        ASSERT_EQ(view.dim(), dim);
        ASSERT_EQ(view.classes(), 17u);
        EXPECT_TRUE(view.memory().mapped());

        std::vector<Hypervector> queries;
        for (int q = 0; q < 24; ++q)
            queries.push_back(Hypervector::random(dim, rng));

        AssociativeMemory reference = am;

        metrics::QueryMetrics ramMetrics;
        metrics::QueryMetrics mapMetrics;
        reference.attachMetrics(&ramMetrics);
        view.memory().attachMetrics(&mapMetrics);

        for (const auto &query : queries) {
            expectSameResult(view.memory().search(query),
                             reference.search(query),
                             where + "/search");
            const auto wantTop =
                reference.searchTopK(query, 5);
            const auto gotTop =
                view.memory().searchTopK(query, 5);
            ASSERT_EQ(gotTop.size(), wantTop.size());
            for (std::size_t i = 0; i < wantTop.size();
                 ++i) {
                EXPECT_EQ(gotTop[i].classId,
                          wantTop[i].classId)
                    << where << "/topk[" << i << "]";
                EXPECT_EQ(gotTop[i].distance,
                          wantTop[i].distance)
                    << where << "/topk[" << i << "]";
            }
        }
        for (const std::size_t threads : {1u, 4u}) {
            const auto want =
                reference.searchBatch(queries, threads);
            const auto got =
                view.memory().searchBatch(queries, threads);
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t i = 0; i < want.size(); ++i)
                expectSameResult(
                    got[i], want[i],
                    where + "/batch[" +
                        std::to_string(i) + "]x" +
                        std::to_string(threads));
        }

        // The scan counters are part of the determinism
        // contract: the same queries must do exactly the same
        // scan work, mapped or not.
        EXPECT_EQ(mapMetrics.queries.value(),
                  ramMetrics.queries.value())
            << where;
        EXPECT_EQ(mapMetrics.rowsScanned.value(),
                  ramMetrics.rowsScanned.value())
            << where;
        EXPECT_GT(ramMetrics.rowsScanned.value(), 0u) << where;

        reference.attachMetrics(nullptr);
        view.memory().attachMetrics(nullptr);

        // Detailed search (full distance vector) from the map.
        const auto wantDetail =
            am.searchDetailed(queries.front());
        const auto gotDetail =
            view.memory().searchDetailed(queries.front());
        EXPECT_EQ(gotDetail.distances, wantDetail.distances)
            << where;
        EXPECT_EQ(gotDetail.margin(), wantDetail.margin())
            << where;
        EXPECT_EQ(view.memory().minPairwiseDistance(),
                  am.minPairwiseDistance())
            << where;

        std::remove(path.c_str());
    }
}

TEST(ModelRoundTripPropertyTest, SideMemoriesSurviveTheTrip)
{
    Rng rng(0x1D157ULL);
    const std::size_t dim = 250;
    const AssociativeMemory am = buildModel(dim, 6, rng);
    const hdham::ItemMemory items(27, dim, 0xABCDULL);
    const hdham::ItemMemory levels(21, dim, 0xBEEFULL);
    modelfile::SaveOptions opts;
    opts.items = &items;
    opts.levels = &levels;
    const std::string path = ::testing::TempDir() +
                             std::to_string(::getpid()) + "_rt_items.hdc";
    modelfile::save(path, am, opts);
    modelfile::ModelView view(path);
    ASSERT_TRUE(view.hasItemMemory());
    const hdham::ItemMemory reloaded = view.itemMemory();
    ASSERT_EQ(reloaded.size(), items.size());
    ASSERT_EQ(reloaded.dim(), items.dim());
    for (std::size_t i = 0; i < items.size(); ++i)
        EXPECT_EQ(reloaded[i], items[i]) << "symbol " << i;
    ASSERT_TRUE(view.hasLevelMemory());
    const hdham::ItemMemory relevels = view.levelMemory();
    ASSERT_EQ(relevels.size(), levels.size());
    for (std::size_t i = 0; i < levels.size(); ++i)
        EXPECT_EQ(relevels[i], levels[i]) << "level " << i;
    std::remove(path.c_str());
}

TEST(ModelRoundTripPropertyTest, SideMemoriesResaveByteForByte)
{
    // Open, freeze into a snapshot, and save the snapshot's store
    // with the side memories it carried over.
    Rng rng(0x5A7EULL);
    const std::size_t dim = 250;
    const AssociativeMemory am = buildModel(dim, 6, rng);
    const hdham::ItemMemory items(27, dim, 0xABCDULL);
    const hdham::ItemMemory levels(21, dim, 0xBEEFULL);
    modelfile::SaveOptions opts;
    opts.items = &items;
    opts.levels = &levels;
    const std::string prefix =
        ::testing::TempDir() + std::to_string(::getpid());
    const std::string first = prefix + "_resave_in.hdc";
    const std::string second = prefix + "_resave_out.hdc";
    modelfile::save(first, am, opts);

    const auto snap =
        hdham::modelload::LoadedModel::open(first).intoSnapshot();
    ASSERT_TRUE(snap->hasItemMemory());
    ASSERT_TRUE(snap->hasLevelMemory());
    modelfile::SaveOptions carried;
    carried.items = &snap->itemMemory();
    carried.levels = &snap->levelMemory();
    modelfile::save(second, snap->memory(), carried);

    const auto bytesOf = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };
    const std::string written = bytesOf(first);
    EXPECT_FALSE(written.empty());
    EXPECT_TRUE(written == bytesOf(second));
    std::remove(first.c_str());
    std::remove(second.c_str());
}

} // namespace
