/**
 * @file
 * Deterministic model fixtures shared by the committed golden files
 * in tests/data/, the generator tool (tools/make_model_fixture.cc)
 * and the golden tests.
 *
 * The fixtures pin the hdham.model.v1 byte format: the golden test
 * rebuilds each fixture model from this recipe, re-serializes it,
 * and requires byte equality with the committed file. Any change
 * that alters the emitted bytes is a format break and must bump
 * modelfile::formatVersion (and add new fixtures) instead of
 * silently rewriting the old ones.
 *
 * Everything here derives from fixed seeds through hdham::Rng, which
 * is a portable fixed-width generator, so the recipe reproduces the
 * same bytes on every platform.
 */

#ifndef HDHAM_TESTS_FIXTURES_MODEL_FIXTURE_HH
#define HDHAM_TESTS_FIXTURES_MODEL_FIXTURE_HH

#include <cstddef>
#include <string>
#include <vector>

#include "core/assoc_memory.hh"
#include "core/item_memory.hh"
#include "core/model_file.hh"
#include "core/random.hh"

namespace hdham::testfix
{

/** One committed fixture: file name plus the recipe behind it. */
struct FixtureSpec
{
    /** File name inside tests/data/. */
    const char *file;
    std::size_t dim;
    std::size_t classes;
    /** Embed a 27-symbol item memory (the text alphabet). */
    bool withItems;
};

/** The committed fixtures today's writer reproduces byte for byte. */
inline std::vector<FixtureSpec>
fixtureSpecs()
{
    // dim 250 keeps a ragged tail word (250 = 3x64 + 58 bits) so the
    // fixtures cover the clean-tail invariant.
    return {
        {"model_rowmajor_d250_c12.hdc", 250, 12, true},
    };
}

/**
 * A committed file in a layout the reader refuses: an earlier
 * writer's copy of the row-major fixture's classes, bit-sliced at a
 * 128-bit prefix in 3 shards of 4 rows each. Read-only, never
 * regenerated.
 */
inline constexpr const char *slicedFixtureFile =
    "model_sliced_d250_c12_s3.hdc";

/** Deterministic class labels: varied lengths, one empty. */
inline std::string
fixtureLabel(std::size_t id)
{
    if (id == 3)
        return ""; // empty labels are legal and must round-trip
    std::string label = "class-" + std::to_string(id);
    if (id % 4 == 1)
        label += "-with-a-longer-suffix";
    return label;
}

/** The fixture's class store. */
inline AssociativeMemory
buildFixtureMemory(const FixtureSpec &spec)
{
    Rng rng(0xF1C570BEULL + spec.dim * 1315423911ULL);
    AssociativeMemory am(spec.dim);
    am.reserve(spec.classes);
    for (std::size_t id = 0; id < spec.classes; ++id)
        am.store(Hypervector::random(spec.dim, rng),
                 fixtureLabel(id));
    return am;
}

/** The fixture's embedded item memory (when spec.withItems). */
inline ItemMemory
buildFixtureItems(const FixtureSpec &spec)
{
    return ItemMemory(27, spec.dim, 0x5EED5EEDULL);
}

/** Serialize the fixture exactly as the generator tool does. */
inline void
writeFixture(std::ostream &out, const FixtureSpec &spec)
{
    const AssociativeMemory am = buildFixtureMemory(spec);
    modelfile::SaveOptions opts;
    ItemMemory items = buildFixtureItems(spec);
    if (spec.withItems)
        opts.items = &items;
    modelfile::ModelWriter writer(out);
    writer.write(am, opts);
}

} // namespace hdham::testfix

#endif // HDHAM_TESTS_FIXTURES_MODEL_FIXTURE_HH
