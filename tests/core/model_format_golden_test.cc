/**
 * @file
 * hdham.model.v1 format freeze: re-serializing each fixture recipe
 * (tests/fixtures/model_fixture.hh) must reproduce the committed
 * golden file in tests/data/ byte for byte. A failure here means the
 * writer's output drifted -- that is a format break, and the fix is
 * to bump modelfile::formatVersion and add new fixtures, never to
 * regenerate the old ones in place.
 *
 * The committed files double as cross-version readers' ground truth:
 * the view over each golden file must answer queries bit-identically
 * to the model rebuilt from the recipe.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/assoc_memory.hh"
#include "core/item_memory.hh"
#include "core/model_file.hh"
#include "core/random.hh"
#include "fixtures/model_fixture.hh"

#ifndef HDHAM_TEST_DATA_DIR
#error "HDHAM_TEST_DATA_DIR must point at tests/data"
#endif

namespace
{

using hdham::AssociativeMemory;
using hdham::Hypervector;
using hdham::ItemMemory;
using hdham::Rng;
namespace modelfile = hdham::modelfile;
namespace testfix = hdham::testfix;

std::string
goldenPath(const testfix::FixtureSpec &spec)
{
    return std::string(HDHAM_TEST_DATA_DIR) + "/" + spec.file;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** First differing byte offset, or npos when equal. */
std::size_t
firstDiff(const std::string &a, const std::string &b)
{
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i)
        if (a[i] != b[i])
            return i;
    return a.size() == b.size() ? std::string::npos : n;
}

TEST(ModelFormatGoldenTest, ReserializationIsByteExact)
{
    for (const auto &spec : testfix::fixtureSpecs()) {
        const std::string committed = readFile(goldenPath(spec));
        ASSERT_FALSE(committed.empty()) << spec.file;
        std::ostringstream out;
        testfix::writeFixture(out, spec);
        const std::string rebuilt = out.str();
        EXPECT_EQ(rebuilt.size(), committed.size()) << spec.file;
        EXPECT_EQ(firstDiff(rebuilt, committed), std::string::npos)
            << spec.file << ": writer output drifted at byte "
            << firstDiff(rebuilt, committed)
            << " -- bump modelfile::formatVersion instead of "
               "regenerating the fixture";
    }
}

TEST(ModelFormatGoldenTest, GoldenFilesServeBitIdentically)
{
    for (const auto &spec : testfix::fixtureSpecs()) {
        modelfile::ModelView view(goldenPath(spec));
        const AssociativeMemory reference =
            testfix::buildFixtureMemory(spec);
        ASSERT_EQ(view.dim(), spec.dim) << spec.file;
        ASSERT_EQ(view.classes(), spec.classes) << spec.file;
        EXPECT_TRUE(view.memory().mapped()) << spec.file;
        Rng rng(0x601DULL);
        for (int q = 0; q < 48; ++q) {
            const Hypervector query =
                Hypervector::random(spec.dim, rng);
            const auto want = reference.search(query);
            const auto got = view.memory().search(query);
            EXPECT_EQ(got.classId, want.classId)
                << spec.file << " query " << q;
            EXPECT_EQ(got.bestDistance, want.bestDistance)
                << spec.file << " query " << q;
        }
        for (std::size_t id = 0; id < spec.classes; ++id) {
            EXPECT_EQ(view.memory().labelOf(id),
                      testfix::fixtureLabel(id))
                << spec.file;
            EXPECT_EQ(view.memory().vectorOf(id),
                      reference.vectorOf(id))
                << spec.file << " class " << id;
        }
    }
}

TEST(ModelFormatGoldenTest, EmbeddedItemMemoryMatchesRecipe)
{
    for (const auto &spec : testfix::fixtureSpecs()) {
        if (!spec.withItems)
            continue;
        modelfile::ModelView view(goldenPath(spec));
        ASSERT_TRUE(view.hasItemMemory()) << spec.file;
        const ItemMemory want = testfix::buildFixtureItems(spec);
        const ItemMemory got = view.itemMemory();
        ASSERT_EQ(got.size(), want.size()) << spec.file;
        ASSERT_EQ(got.dim(), want.dim()) << spec.file;
        for (std::size_t i = 0; i < want.size(); ++i)
            EXPECT_EQ(got[i], want[i])
                << spec.file << " symbol " << i;
    }
}

} // namespace
