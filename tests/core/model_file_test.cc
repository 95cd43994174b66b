/**
 * @file
 * hdham.model.v1 loader hardening: every malformed input -- any
 * truncated prefix, any flipped bit, tampered header fields,
 * corrupted section and shard tables -- must raise a precise
 * std::runtime_error and never crash (the suite is part of the
 * tier-1 set the ASan/UBSan targets run). Also pins the read-only
 * contract and the basic save/load round trip. The shard-table and
 * tail-region checks run on the committed legacy fixture, a sliced
 * 3-shard file today's writer no longer produces.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/assoc_memory.hh"
#include "core/crc32c.hh"
#include "core/item_memory.hh"
#include "core/level_memory.hh"
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
using hdham::LevelItemMemory;
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

/**
 * Recompute every section CRC and the header CRC after a deliberate
 * tamper, so the loader's *semantic* validation is what rejects the
 * file (not the checksum pass).
 */
void
refreshChecksums(std::string &bytes)
{
    for (std::size_t i = 0; i < modelfile::kSectionCount; ++i) {
        const SectionInfo s = sectionAt(bytes, i);
        const std::uint32_t crc = crc32c::compute(
            bytes.data() + s.offset,
            static_cast<std::size_t>(s.size));
        patchU32At(bytes,
                   kOffSections + i * kSectionEntryBytes + 16, crc);
    }
    patchU32At(bytes, kOffHeaderCrc, 0);
    patchU32At(bytes, kOffHeaderCrc,
               crc32c::compute(bytes.data(), modelfile::headerBytes));
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

/** The legacy fixture: its 12 classes bit-sliced in 3 shards. */
const testfix::FixtureSpec &
legacySpec()
{
    static const testfix::FixtureSpec spec =
        testfix::legacyFixtureSpecs().front();
    return spec;
}

/** The committed legacy fixture's bytes. */
std::string
legacyFixtureBytes()
{
    const std::string path =
        std::string(HDHAM_TEST_DATA_DIR) + "/" + legacySpec().file;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

TEST(ModelFileTest, RoundTripServesIdentically)
{
    // Today's writer's bytes, then a legacy sliced 3-shard file whose
    // rows the reader copies into a row-major store.
    for (const bool sliced : {false, true}) {
        const AssociativeMemory am =
            sliced ? testfix::buildFixtureMemory(legacySpec())
                   : makeModel(250, 9);
        const std::string path = tempFile(
            "mf_roundtrip.hdc",
            sliced ? legacyFixtureBytes() : serializedModel());
        modelfile::ModelView view(path);
        ASSERT_EQ(view.classes(), am.size());
        ASSERT_EQ(view.dim(), am.dim());
        EXPECT_EQ(view.version(), modelfile::formatVersion);
        Rng rng(7);
        for (int q = 0; q < 32; ++q) {
            const Hypervector query =
                Hypervector::random(am.dim(), rng);
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
}

TEST(ModelFileTest, EveryTruncatedPrefixThrows)
{
    for (const bool sliced : {false, true}) {
        const std::string full =
            sliced ? legacyFixtureBytes() : serializedModel();
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
    const std::string full = legacyFixtureBytes();
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
    std::string bytes = legacyFixtureBytes();
    const SectionInfo table = sectionAt(bytes, 0);
    // Shard 1's firstRow (second 32-byte entry) off by one.
    const std::size_t firstRowAt =
        static_cast<std::size_t>(table.offset) + 32;
    patchU64At(bytes, firstRowAt,
               readU64At(bytes, firstRowAt) + 1);
    refreshChecksums(bytes);
    expectLoadError(tempFile("mf_shard.hdc", bytes),
                    "shard table corrupt");
}

TEST(ModelFileTest, TamperedShardPointerCaught)
{
    std::string bytes = legacyFixtureBytes();
    const SectionInfo table = sectionAt(bytes, 0);
    // Shard 0's head offset pushed past the row words section.
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

TEST(ModelFileTest, ShardRowWraparoundRejected)
{
    // Crafted shard table whose row counts wrap uint64 arithmetic:
    // shard 0 claims 2^60 rows (head/tail byte counts wrap to 0),
    // shard 1 claims 2^64 - 2^60 + 4 rows so `covered` wraps back
    // to 4, and shard 2 tops it up to the header's 12. Every older
    // check (contiguity, byte bounds, final sum) is satisfied; only
    // the overflow-safe rows-remaining check rejects it.
    std::string bytes = legacyFixtureBytes();
    const SectionInfo table = sectionAt(bytes, 0);
    const auto entry = [&](std::size_t s, std::size_t field) {
        return static_cast<std::size_t>(table.offset) + s * 32 +
               field * 8;
    };
    patchU64At(bytes, entry(0, 1), 1ULL << 60);
    patchU64At(bytes, entry(1, 0), 1ULL << 60);
    patchU64At(bytes, entry(1, 1), 0 - (1ULL << 60) + 4);
    patchU64At(bytes, entry(2, 0), 4);
    patchU64At(bytes, entry(2, 1), 8);
    refreshChecksums(bytes);
    expectLoadError(tempFile("mf_shardwrap.hdc", bytes),
                    "shard table corrupt");
}

TEST(ModelFileTest, AliasedShardsCannotInflateTheCopy)
{
    // Two row-major shards that both point at the same 10 rows of
    // words: each passes its own bounds check, but together they
    // claim 20 rows in a section that holds 10. Copying them into a
    // row-major store would allocate more than the file holds, so
    // the loader refuses.
    const AssociativeMemory am = makeModel(250, 20);
    std::ostringstream out;
    modelfile::ModelWriter writer(out);
    writer.write(am);
    std::string bytes = out.str();
    const SectionInfo rows = sectionAt(bytes, 1);
    const std::uint64_t half = rows.size / 2; // 10 rows of 32 bytes
    bytes.erase(static_cast<std::size_t>(rows.offset + half),
                static_cast<std::size_t>(half));
    patchU32At(bytes, kOffShardCount, 2);
    patchU64At(bytes, kOffFileSize, bytes.size());
    patchU64At(bytes, kOffSections + kSectionEntryBytes + 8, half);
    for (std::size_t i = 2; i < modelfile::kSectionCount; ++i) {
        const std::size_t e = kOffSections + i * kSectionEntryBytes;
        patchU64At(bytes, e, readU64At(bytes, e) - half);
    }
    const auto table = static_cast<std::size_t>(sectionAt(bytes, 0).offset);
    patchU64At(bytes, table + 8, 10);           // shard 0: rows
    patchU64At(bytes, table + 32, 10);          // shard 1: firstRow
    patchU64At(bytes, table + 40, 10);          // rows
    patchU64At(bytes, table + 48, rows.offset); // head: shard 0's
    patchU64At(bytes, table + 56, 0);           // tail
    refreshChecksums(bytes);
    expectLoadError(tempFile("mf_aliased.hdc", bytes),
                    "rows do not fit the row words section");
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
    patchU32At(bytes, kOffHeaderCrc, 0);
    patchU32At(bytes, kOffHeaderCrc,
               crc32c::compute(bytes.data(), modelfile::headerBytes));
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
    const std::string full = legacyFixtureBytes();

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
    const LevelItemMemory levels(4, 128, 99);
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

} // namespace
