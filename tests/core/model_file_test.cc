/**
 * @file
 * hdham.model.v1 loader hardening: every malformed input -- any
 * truncated prefix, any flipped bit, tampered header fields,
 * corrupted section and shard tables, a layout no writer emits --
 * must raise a precise std::runtime_error and never crash (the suite
 * is part of the tier-1 set the ASan/UBSan targets run). Also pins
 * the read-only contract and the basic save/load round trip. A
 * seeded mutation harness ends the suite: thousands of mutants of
 * each input must be rejected with an exception or serve every
 * class, a search, a top-3, their side memories and an encoded
 * sentence.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/assoc_memory.hh"
#include "core/crc32c.hh"
#include "core/encoder.hh"
#include "core/item_memory.hh"
#include "core/model_file.hh"
#include "core/model_loader.hh"
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
namespace crc32c = hdham::crc32c;
namespace modelfile = hdham::modelfile;
namespace testfix = hdham::testfix;

/** Header/section-table byte offsets of the v1 format. */
constexpr std::size_t kOffHeaderCrc = 12;
constexpr std::size_t kOffVersion = 8;
constexpr std::size_t kOffRows = 24;
constexpr std::size_t kOffShardCount = 36;
constexpr std::size_t kOffFileSize = 56;
constexpr std::size_t kOffSections = 72;
constexpr std::size_t kSectionEntryBytes = 24;

std::uint64_t
readU64At(const std::string &bytes, std::size_t at)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
        v |= static_cast<std::uint64_t>(static_cast<unsigned char>(
                 bytes[at + static_cast<std::size_t>(i)]))
             << (8 * i);
    }
    return v;
}

void
patchU32At(std::string &bytes, std::size_t at, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i) {
        bytes[at + static_cast<std::size_t>(i)] =
            static_cast<char>((v >> (8 * i)) & 0xff);
    }
}

void
patchU64At(std::string &bytes, std::size_t at, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        bytes[at + static_cast<std::size_t>(i)] =
            static_cast<char>((v >> (8 * i)) & 0xff);
    }
}

struct SectionInfo
{
    std::uint64_t offset;
    std::uint64_t size;
};

SectionInfo
sectionAt(const std::string &bytes, std::size_t index)
{
    const std::size_t entry =
        kOffSections + index * kSectionEntryBytes;
    return {readU64At(bytes, entry), readU64At(bytes, entry + 8)};
}

/** Recompute the header CRC over the (tampered) header. */
void
refreshHeaderChecksum(std::string &bytes)
{
    patchU32At(bytes, kOffHeaderCrc, 0);
    patchU32At(bytes, kOffHeaderCrc,
               crc32c::compute(bytes.data(), modelfile::headerBytes));
}

/**
 * Recompute every section CRC and the header CRC after a deliberate
 * tamper, so the loader's *semantic* validation is what rejects the
 * file (not the checksum pass). A section the table places outside
 * the file keeps its stale CRC.
 */
void
refreshChecksums(std::string &bytes)
{
    for (std::size_t i = 0; i < modelfile::kSectionCount; ++i) {
        const SectionInfo s = sectionAt(bytes, i);
        if (s.offset > bytes.size() || s.size > bytes.size() - s.offset)
            continue;
        const std::uint32_t crc = crc32c::compute(
            bytes.data() + s.offset,
            static_cast<std::size_t>(s.size));
        patchU32At(bytes,
                   kOffSections + i * kSectionEntryBytes + 16, crc);
    }
    refreshHeaderChecksum(bytes);
}

AssociativeMemory
makeModel(std::size_t dim, std::size_t classes)
{
    Rng rng(dim * 31 + classes);
    AssociativeMemory am(dim);
    for (std::size_t id = 0; id < classes; ++id)
        am.store(Hypervector::random(dim, rng),
                 "label-" + std::to_string(id));
    return am;
}

std::string
serializedModel(bool withItems = true)
{
    const AssociativeMemory am = makeModel(250, 9);
    modelfile::SaveOptions opts;
    const ItemMemory items(27, 250, 99);
    if (withItems)
        opts.items = &items;
    std::ostringstream out;
    modelfile::ModelWriter writer(out);
    writer.write(am, opts);
    return out.str();
}

/** Paths tempFile() wrote, removed when the test process exits. */
struct TempFiles
{
    std::set<std::string> paths;
    ~TempFiles()
    {
        for (const std::string &path : paths)
            std::remove(path.c_str());
    }
};

/**
 * Write @p bytes to a temp file named after @p name and this process,
 * so concurrent ctest entries running the same test never map a file
 * another one is rewriting.
 */
std::string
tempFile(const std::string &name, const std::string &bytes)
{
    static TempFiles written;
    const std::string path = ::testing::TempDir() +
                             std::to_string(::getpid()) + "_" + name;
    written.paths.insert(path);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    EXPECT_TRUE(static_cast<bool>(out)) << path;
    return path;
}

/** Expect a load failure whose message contains @p needle. */
void
expectLoadError(const std::string &path, const std::string &needle,
                bool verify = true)
{
    modelfile::ModelView::Options opts;
    opts.verifyChecksums = verify;
    try {
        modelfile::ModelView view(path, opts);
        ADD_FAILURE() << "no throw (wanted '" << needle << "')";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(needle),
                  std::string::npos)
            << "wanted '" << needle << "', got: " << e.what();
    }
}

/** The bytes of the committed fixture @p file. */
std::string
fixtureBytes(const std::string &file)
{
    const std::string path = std::string(HDHAM_TEST_DATA_DIR) + "/" + file;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** The committed row-major fixture's bytes. */
std::string
rowMajorFixtureBytes()
{
    return fixtureBytes(testfix::fixtureSpecs().front().file);
}

TEST(ModelFileTest, RoundTripServesIdentically)
{
    const AssociativeMemory am = makeModel(250, 9);
    const std::string path =
        tempFile("mf_roundtrip.hdc", serializedModel());
    modelfile::ModelView view(path);
    ASSERT_EQ(view.classes(), am.size());
    ASSERT_EQ(view.dim(), am.dim());
    EXPECT_EQ(view.version(), modelfile::formatVersion);
    Rng rng(7);
    for (int q = 0; q < 32; ++q) {
        const Hypervector query = Hypervector::random(am.dim(), rng);
        const auto expect = am.search(query);
        const auto got = view.memory().search(query);
        EXPECT_EQ(got.classId, expect.classId);
        EXPECT_EQ(got.bestDistance, expect.bestDistance);
    }
    for (std::size_t id = 0; id < am.size(); ++id) {
        EXPECT_EQ(view.memory().labelOf(id), am.labelOf(id));
        EXPECT_EQ(view.memory().vectorOf(id), am.vectorOf(id));
    }
    std::remove(path.c_str());
}

TEST(ModelFileTest, EveryTruncatedPrefixThrows)
{
    for (const std::string &full :
         {serializedModel(), rowMajorFixtureBytes()}) {
        for (std::size_t cut = 0; cut < full.size(); ++cut) {
            const std::string path = tempFile(
                "mf_truncated.hdc", full.substr(0, cut));
            EXPECT_THROW(
                {
                    try {
                        modelfile::ModelView view(path);
                    } catch (const std::runtime_error &) {
                        throw;
                    } catch (...) {
                        ADD_FAILURE()
                            << "non-runtime_error at cut " << cut;
                        throw;
                    }
                },
                std::runtime_error)
                << "cut at " << cut << " of " << full.size();
        }
    }
}

TEST(ModelFileTest, FlippedBitInEverySectionThrows)
{
    const std::string full = rowMajorFixtureBytes();
    for (std::size_t i = 0; i < modelfile::kSectionCount; ++i) {
        const SectionInfo s = sectionAt(full, i);
        ASSERT_GT(s.size, 0u) << modelfile::sectionName(i);
        // Flip one bit at the start, middle and end of the section.
        for (const std::uint64_t at :
             {s.offset, s.offset + s.size / 2,
              s.offset + s.size - 1}) {
            for (int bit = 0; bit < 8; ++bit) {
                std::string bytes = full;
                bytes[static_cast<std::size_t>(at)] =
                    static_cast<char>(
                        bytes[static_cast<std::size_t>(at)] ^
                        (1 << bit));
                const std::string path =
                    tempFile("mf_bitflip.hdc", bytes);
                expectLoadError(
                    path, std::string(modelfile::sectionName(i)) +
                              " section checksum mismatch at byte " +
                              std::to_string(s.offset));
            }
        }
    }
}

TEST(ModelFileTest, FlippedBitAnywhereInHeaderThrows)
{
    const std::string full = serializedModel();
    for (std::size_t at = 0; at < modelfile::headerBytes; ++at) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string bytes = full;
            bytes[at] =
                static_cast<char>(bytes[at] ^ (1 << bit));
            const std::string path =
                tempFile("mf_headerflip.hdc", bytes);
            EXPECT_THROW(modelfile::ModelView view(path),
                         std::runtime_error)
                << "byte " << at << " bit " << bit;
        }
    }
}

TEST(ModelFileTest, BadMagicNamed)
{
    std::string bytes = serializedModel();
    bytes[0] = 'X';
    expectLoadError(tempFile("mf_magic.hdc", bytes), "bad magic");
}

TEST(ModelFileTest, UnsupportedVersionNamed)
{
    std::string bytes = serializedModel();
    patchU32At(bytes, kOffVersion, 2);
    refreshChecksums(bytes);
    expectLoadError(tempFile("mf_version.hdc", bytes),
                    "unsupported version 2");
}

TEST(ModelFileTest, HeaderChecksumMismatchNamed)
{
    std::string bytes = serializedModel();
    // Flip a reserved-ish header byte without refreshing the CRC.
    bytes[68] = static_cast<char>(bytes[68] ^ 0x01);
    expectLoadError(tempFile("mf_headercrc.hdc", bytes),
                    "header checksum mismatch");
}

TEST(ModelFileTest, FileSizeFieldMismatchNamed)
{
    std::string bytes = serializedModel();
    patchU64At(bytes, kOffFileSize,
               readU64At(bytes, kOffFileSize) + 64);
    refreshChecksums(bytes);
    expectLoadError(tempFile("mf_filesize.hdc", bytes),
                    "truncated file");
}

TEST(ModelFileTest, AppendedGarbageRejected)
{
    std::string bytes = serializedModel();
    bytes.append(64, '\0');
    expectLoadError(tempFile("mf_appended.hdc", bytes),
                    "truncated file");
}

TEST(ModelFileTest, TamperedSectionOffsetNamesSection)
{
    std::string bytes = serializedModel();
    const std::size_t entry =
        kOffSections + 2 * kSectionEntryBytes; // labels
    patchU64At(bytes, entry, readU64At(bytes, entry) + 64);
    refreshChecksums(bytes);
    expectLoadError(tempFile("mf_sectionoff.hdc", bytes),
                    "section table corrupt: labels");
}

TEST(ModelFileTest, TamperedShardTableCaught)
{
    std::string bytes = rowMajorFixtureBytes();
    const SectionInfo table = sectionAt(bytes, 0);
    // The shard's firstRow off by one.
    const std::size_t firstRowAt =
        static_cast<std::size_t>(table.offset);
    patchU64At(bytes, firstRowAt,
               readU64At(bytes, firstRowAt) + 1);
    refreshChecksums(bytes);
    expectLoadError(tempFile("mf_shard.hdc", bytes),
                    "shard table corrupt");
}

TEST(ModelFileTest, TamperedShardPointerCaught)
{
    std::string bytes = rowMajorFixtureBytes();
    const SectionInfo table = sectionAt(bytes, 0);
    // The shard's head offset pushed past the row words section.
    const std::size_t headAt =
        static_cast<std::size_t>(table.offset) + 16;
    patchU64At(bytes, headAt, readU64At(bytes, headAt) + (1 << 20));
    refreshChecksums(bytes);
    expectLoadError(tempFile("mf_shardptr.hdc", bytes),
                    "falls outside the row words section");
}

TEST(ModelFileTest, ImplausibleRowCountRejected)
{
    std::string bytes = serializedModel();
    patchU64At(bytes, kOffRows, 1ULL << 62);
    refreshChecksums(bytes);
    expectLoadError(tempFile("mf_rowcount.hdc", bytes),
                    "implausible row count");
}

TEST(ModelFileTest, EarlierLayoutsAreRefusedNamingTheLayout)
{
    // An earlier writer's sliced, 3-shard file, and today's row-major
    // fixture with a header (resealed) that records 2 shards: the
    // loader maps neither, and names the file and the layout its
    // header records.
    const std::string sliced =
        std::string(HDHAM_TEST_DATA_DIR) + "/" + testfix::slicedFixtureFile;
    expectLoadError(sliced,
                    sliced + ": unsupported layout: header records "
                             "layout tag 1, 3 shards, slice prefix 128");

    std::string bytes = rowMajorFixtureBytes();
    patchU32At(bytes, kOffShardCount, 2);
    refreshChecksums(bytes);
    const std::string twoShards = tempFile("mf_two_shards.hdc", bytes);
    expectLoadError(twoShards,
                    twoShards + ": unsupported layout: header records "
                                "layout tag 0, 2 shards, slice prefix 0");
}

TEST(ModelFileTest, SectionSizeWraparoundRejected)
{
    // A first-section size of 2^64 - 64 wraps the running offset
    // back below the header; re-pointing the remaining sections at
    // the wrapped offsets and re-sizing the last one makes the
    // final sum land exactly on the file size. The overflow-safe
    // size bound must reject it before the checksum pass walks a
    // ~2^64-byte section.
    std::string bytes = serializedModel();
    const std::uint64_t fileSize = bytes.size();
    patchU64At(bytes,
               kOffSections + 0 * kSectionEntryBytes + 8,
               0 - std::uint64_t{64});
    std::uint64_t at = modelfile::headerBytes - 64;
    for (std::size_t i = 1; i < modelfile::kSectionCount; ++i) {
        const std::size_t e =
            kOffSections + i * kSectionEntryBytes;
        patchU64At(bytes, e, at);
        if (i + 1 == modelfile::kSectionCount)
            patchU64At(bytes, e + 8, fileSize - at);
        at += readU64At(bytes, e + 8);
    }
    ASSERT_EQ(at, fileSize);
    // Only the header CRC (which covers the section table) can be
    // refreshed: recomputing per-section CRCs would itself walk the
    // crafted ~2^64-byte section. The loader rejects during section
    // table parsing, before its checksum pass.
    refreshHeaderChecksum(bytes);
    expectLoadError(tempFile("mf_sectionwrap.hdc", bytes),
                    "section table corrupt");
}

TEST(ModelFileTest, TamperedLabelCountCaught)
{
    std::string bytes = serializedModel();
    const SectionInfo labels = sectionAt(bytes, 2);
    const std::size_t countAt =
        static_cast<std::size_t>(labels.offset);
    patchU64At(bytes, countAt, readU64At(bytes, countAt) + 1);
    refreshChecksums(bytes);
    expectLoadError(tempFile("mf_labelcount.hdc", bytes),
                    "labels section records");
}

TEST(ModelFileTest, TamperedLabelLengthCaught)
{
    std::string bytes = serializedModel();
    const SectionInfo labels = sectionAt(bytes, 2);
    // First label length (just after the count): far too large.
    const std::size_t lenAt =
        static_cast<std::size_t>(labels.offset) + 8;
    patchU64At(bytes, lenAt, 1ULL << 40);
    refreshChecksums(bytes);
    expectLoadError(tempFile("mf_labellen.hdc", bytes),
                    "overruns its section");
}

TEST(ModelFileTest, TamperedItemMemoryDimCaught)
{
    std::string bytes = serializedModel();
    const SectionInfo items = sectionAt(bytes, 3);
    const std::size_t dimAt =
        static_cast<std::size_t>(items.offset) + 8;
    patchU64At(bytes, dimAt, 999);
    refreshChecksums(bytes);
    expectLoadError(tempFile("mf_itemdim.hdc", bytes),
                    "item memory dimension 999");
}

TEST(ModelFileTest, SkippedVerificationStillValidatesStructure)
{
    // verifyChecksums=false skips only the CRC pass; structural
    // validation (truncation, shard/label bounds) still rejects.
    const std::string full = rowMajorFixtureBytes();

    // A payload bit flip now loads -- that is the documented trade.
    {
        std::string bytes = full;
        const SectionInfo rows = sectionAt(bytes, 1);
        bytes[static_cast<std::size_t>(rows.offset)] =
            static_cast<char>(
                bytes[static_cast<std::size_t>(rows.offset)] ^ 1);
        const std::string path =
            tempFile("mf_noverify_flip.hdc", bytes);
        modelfile::ModelView::Options opts;
        opts.verifyChecksums = false;
        EXPECT_NO_THROW(modelfile::ModelView view(path, opts));
    }

    // Truncation and bad shard pointers still throw.
    expectLoadError(
        tempFile("mf_noverify_trunc.hdc",
                 full.substr(0, full.size() - 64)),
        "truncated file", /*verify=*/false);
    {
        std::string bytes = full;
        const SectionInfo table = sectionAt(bytes, 0);
        const std::size_t headAt =
            static_cast<std::size_t>(table.offset) + 16;
        patchU64At(bytes, headAt,
                   readU64At(bytes, headAt) + (1 << 20));
        refreshChecksums(bytes);
        expectLoadError(tempFile("mf_noverify_shard.hdc", bytes),
                        "falls outside", /*verify=*/false);
    }
}

TEST(ModelFileTest, MappedMemoryIsReadOnly)
{
    const std::string path = tempFile(
        "mf_readonly.hdc", serializedModel());
    modelfile::ModelView view(path);
    ASSERT_TRUE(view.memory().mapped());
    Rng rng(1);
    EXPECT_THROW(view.memory().store(Hypervector::random(250, rng)),
                 std::logic_error);
    // The failed store must not have grown the label table.
    EXPECT_EQ(view.memory().size(), 9u);
    std::remove(path.c_str());
}

TEST(ModelFileTest, MoveTransfersTheMapping)
{
    const std::string path = tempFile(
        "mf_move.hdc", serializedModel());
    modelfile::ModelView first(path);
    const std::uint32_t checksum = first.checksum();
    modelfile::ModelView second(std::move(first));
    EXPECT_EQ(second.checksum(), checksum);
    EXPECT_EQ(second.classes(), 9u);
    Rng rng(2);
    const Hypervector query = Hypervector::random(250, rng);
    EXPECT_NO_THROW(second.memory().search(query));
    std::remove(path.c_str());
}

TEST(ModelFileTest, MissingFileNamed)
{
    expectLoadError("/nonexistent/nope.hdc", "cannot open");
}

TEST(ModelFileTest, MismatchedSideMemoryWritesNothing)
{
    // The writer checks both side memories' dimensions before it
    // emits the header, so a rejected save leaves no partial file.
    const AssociativeMemory am = makeModel(250, 9);
    const ItemMemory items(27, 128, 99);
    const ItemMemory levels(4, 128, 99);
    {
        modelfile::SaveOptions opts;
        opts.items = &items;
        std::ostringstream out;
        modelfile::ModelWriter writer(out);
        EXPECT_THROW(writer.write(am, opts), std::invalid_argument);
        EXPECT_TRUE(out.str().empty());
    }
    {
        modelfile::SaveOptions opts;
        opts.levels = &levels;
        std::ostringstream out;
        modelfile::ModelWriter writer(out);
        EXPECT_THROW(writer.write(am, opts), std::invalid_argument);
        EXPECT_TRUE(out.str().empty());
    }
}

TEST(ModelFileTest, SingleLevelMemoryWritesNothing)
{
    // The reader refuses a level section of one level, so the writer
    // will not emit one.
    const AssociativeMemory am = makeModel(250, 9);
    const ItemMemory levels(1, 250, 99);
    modelfile::SaveOptions opts;
    opts.levels = &levels;
    std::ostringstream out;
    modelfile::ModelWriter writer(out);
    EXPECT_THROW(writer.write(am, opts), std::invalid_argument);
    EXPECT_TRUE(out.str().empty());
}

TEST(ModelFileTest, SaveOverAMappedModelLeavesTheViewIntact)
{
    // save() replaces the file at the path instead of rewriting it in
    // place, so a view still mapping the old file keeps reading the
    // old rows -- a shorter file written in place would fault on them
    // (SIGBUS) and a same-size one would change them -- while a fresh
    // open sees the new model.
    const std::string path = tempFile("mf_replace.hdc", "");
    modelfile::save(path, makeModel(4096, 16));
    const modelfile::ModelView view(path);
    std::vector<Hypervector> rows;
    for (std::size_t c = 0; c < view.classes(); ++c)
        rows.push_back(view.memory().vectorOf(c));
    ASSERT_EQ(rows.size(), 16u);

    const AssociativeMemory replacement = makeModel(64, 2);
    modelfile::save(path, replacement);
    for (std::size_t c = 0; c < rows.size(); ++c)
        EXPECT_EQ(view.memory().vectorOf(c), rows[c]) << c;

    const modelfile::ModelView reopened(path);
    EXPECT_EQ(reopened.dim(), 64u);
    ASSERT_EQ(reopened.classes(), 2u);
    for (std::size_t c = 0; c < 2; ++c)
        EXPECT_EQ(reopened.memory().vectorOf(c),
                  replacement.vectorOf(c))
            << c;
}

TEST(ModelFileTest, EmptyModelRoundTrips)
{
    AssociativeMemory am(128);
    std::ostringstream out;
    modelfile::ModelWriter writer(out);
    writer.write(am);
    const std::string path =
        tempFile("mf_empty.hdc", out.str());
    modelfile::ModelView view(path);
    EXPECT_EQ(view.classes(), 0u);
    EXPECT_EQ(view.dim(), 128u);
    EXPECT_FALSE(view.hasItemMemory());
    EXPECT_FALSE(view.hasLevelMemory());
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Seeded mutation harness
// ---------------------------------------------------------------------------

/** Mutants of each input; each is opened twice. */
constexpr std::size_t kMutants = 5000;

/** 64-bit values at the edges of the fields' ranges. */
constexpr std::uint64_t kBoundary64[] = {
    0, 1, 2, 26, 27, 0x7f, 0x80, 0xff, 0x7fffffff, 0x80000000,
    0xffffffff, 0x100000000, 1ULL << 24, (1ULL << 28) + 1,
    0x7fffffffffffffff, 0x8000000000000000, 0xffffffffffffffff};

/** 32-bit values at the edges of the fields' ranges. */
constexpr std::uint32_t kBoundary32[] = {
    0, 1, 2, 5, 0x7f, 0x80, 0xff, 0x7fffffff, 0x80000000, 0xffffffff};

/**
 * Apply one to three seeded edits to @p bytes: a bit flip, a random
 * byte, a 32- or 64-bit boundary value at an aligned offset, or a
 * boundary or off-by-one value in one of the first three words of a
 * section of the unmutated file (@p sections) -- a side memory's
 * count, dim and wordsPer, the labels' count, a shard entry. Half the
 * offsets fall in the header and its section table, a quarter in the
 * first KiB, the rest anywhere. Every input's size is a multiple of
 * 64, so an aligned word never runs past the end.
 */
void
mutate(std::string &bytes,
       const std::array<SectionInfo, modelfile::kSectionCount> &sections,
       Rng &rng)
{
    const std::size_t edits = 1 + rng.nextBelow(3);
    for (std::size_t e = 0; e < edits; ++e) {
        const std::uint64_t where = rng.nextBelow(4);
        const std::size_t span =
            where < 2    ? modelfile::headerBytes
            : where == 2 ? std::min<std::size_t>(1024, bytes.size())
                         : bytes.size();
        const std::size_t at = rng.nextBelow(span);
        switch (rng.nextBelow(5)) {
        case 0:
            bytes[at] = static_cast<char>(bytes[at] ^
                                          (1 << rng.nextBelow(8)));
            break;
        case 1:
            bytes[at] = static_cast<char>(rng.nextBelow(256));
            break;
        case 2:
            patchU64At(bytes, at & ~std::size_t{7},
                       kBoundary64[rng.nextBelow(std::size(kBoundary64))]);
            break;
        case 3:
            patchU32At(bytes, at & ~std::size_t{3},
                       kBoundary32[rng.nextBelow(std::size(kBoundary32))]);
            break;
        default: {
            const SectionInfo &section =
                sections[rng.nextBelow(sections.size())];
            const std::size_t field =
                static_cast<std::size_t>(section.offset) +
                8 * rng.nextBelow(3);
            const std::uint64_t was = readU64At(bytes, field);
            patchU64At(bytes, field,
                       rng.nextBool()
                           ? kBoundary64[rng.nextBelow(
                                 std::size(kBoundary64))]
                           : (rng.nextBool() ? was + 1 : was - 1));
            break;
        }
        }
    }
}

/**
 * Open @p path as `hdham classify` and the server do and use all of
 * it: label every class, read both side memories, encode a sentence
 * with the item memory, search and take a top-3. False when any step
 * throws, the model's way of refusing the file.
 */
bool
serveMutant(const std::string &path, bool verify, std::uint64_t seed)
{
    Rng rng(seed);
    modelfile::ModelView::Options opts;
    opts.verifyChecksums = verify;
    try {
        const hdham::modelload::LoadedModel model =
            hdham::modelload::LoadedModel::open(path, opts);
        const AssociativeMemory &am = model.memory();
        const modelfile::ModelView &view = *model.modelView();
        std::size_t labelBytes = 0;
        for (std::size_t id = 0; id < am.size(); ++id)
            labelBytes += am.labelOf(id).size();
        EXPECT_LE(labelBytes, view.fileSize());
        if (view.hasLevelMemory()) {
            EXPECT_EQ(view.levelMemory().dim(), am.dim());
        }
        if (view.hasItemMemory()) {
            const hdham::Encoder encoder(view.itemMemory());
            EXPECT_EQ(encoder.encode("the quick brown fox", rng).dim(),
                      am.dim());
        }
        const Hypervector query = Hypervector::random(am.dim(), rng);
        EXPECT_LT(am.search(query).classId, am.size());
        EXPECT_LE(am.searchTopK(query, 3).size(), 3u);
        return true;
    } catch (const std::exception &) {
        return false;
    }
}

/** A small model with both side memories: 27 item seeds, 4 levels. */
std::string
modelWithSideMemories()
{
    const AssociativeMemory am = makeModel(130, 5);
    const ItemMemory items(hdham::TextAlphabet::size, 130, 7);
    const ItemMemory levels(4, 130, 8);
    modelfile::SaveOptions opts;
    opts.items = &items;
    opts.levels = &levels;
    std::ostringstream out;
    modelfile::ModelWriter writer(out);
    writer.write(am, opts);
    return out.str();
}

/**
 * Mutate @p original kMutants times; open every mutant with checksum
 * verification off and, resealed, on. Each open must end in a served
 * model or an exception (serveMutant). Returns how many mutants were
 * served with verification off and on.
 */
std::array<std::size_t, 2>
mutantsServed(const std::string &name, const std::string &original)
{
    std::array<SectionInfo, modelfile::kSectionCount> sections;
    for (std::size_t i = 0; i < sections.size(); ++i)
        sections[i] = sectionAt(original, i);
    Rng rng(0x4D55'7A6EULL + original.size());
    const std::string file = "mf_mutant_" + name + ".hdc";
    std::array<std::size_t, 2> served = {0, 0};
    for (std::size_t m = 0; m < kMutants; ++m) {
        std::string mutant = original;
        mutate(mutant, sections, rng);
        // A stale header CRC would reject almost every mutant before
        // the fields it covers are read; with checksums verified the
        // section CRCs are resealed too.
        refreshHeaderChecksum(mutant);
        served[0] += serveMutant(tempFile(file, mutant), false, m);
        refreshChecksums(mutant);
        served[1] += serveMutant(tempFile(file, mutant), true, m);
        if (::testing::Test::HasFailure()) {
            ADD_FAILURE() << name << ": mutant " << m;
            break;
        }
    }
    return served;
}

/**
 * Neither every mutant of @p original refused nor every one served:
 * the edits reach past the first check and the loader still rejects
 * some.
 */
void
expectSomeMutantsServed(const std::string &name,
                        const std::string &original)
{
    for (const std::size_t count : mutantsServed(name, original)) {
        EXPECT_GT(count, 0u) << name;
        EXPECT_LT(count, kMutants) << name;
    }
}

TEST(ModelMutationTest, RowMajorFixtureMutantsAreRefusedOrServed)
{
    expectSomeMutantsServed("rowmajor", rowMajorFixtureBytes());
}

TEST(ModelMutationTest, SlicedFixtureMutantsAreRefusedOrServed)
{
    // Turning the sliced fixture into a row-major one-shard file
    // takes at least four edits (the layout tag and shard count, the
    // slice prefix, the shard entry's rows and its tail), and a
    // mutant gets at most three, so every mutant is refused.
    for (const std::size_t count : mutantsServed(
             "sliced", fixtureBytes(testfix::slicedFixtureFile)))
        EXPECT_EQ(count, 0u);
}

TEST(ModelMutationTest, SideMemoryModelMutantsAreRefusedOrServed)
{
    expectSomeMutantsServed("sides", modelWithSideMemories());
}

} // namespace
