#include "core/model_file.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/crc32c.hh"
#include "core/hypervector.hh"
#include "core/packed_rows.hh"
#include "core/trace.hh"

namespace hdham::modelfile
{

namespace
{

/** Header field offsets (bytes). Layout documented in the header. */
constexpr std::size_t kOffMagic = 0;
constexpr std::size_t kOffVersion = 8;
constexpr std::size_t kOffHeaderCrc = 12;
constexpr std::size_t kOffDim = 16;
constexpr std::size_t kOffRows = 24;
constexpr std::size_t kOffLayoutTag = 32;
constexpr std::size_t kOffShardCount = 36;
constexpr std::size_t kOffSlicePrefix = 40;
constexpr std::size_t kOffWordsPerRow = 48;
constexpr std::size_t kOffFileSize = 56;
constexpr std::size_t kOffSectionCount = 64;
constexpr std::size_t kOffSections = 72;
/** Bytes per section table entry: offset, size, crc, reserved. */
constexpr std::size_t kSectionEntryBytes = 24;
/** Bytes per shard table entry: firstRow, rows, head, tail. */
constexpr std::size_t kShardEntryBytes = 32;
/** Byte size of a {count, dim, wordsPer} side-memory header. */
constexpr std::size_t kMemoryHeaderBytes = 24;

static_assert(kOffSections + kSectionCount * kSectionEntryBytes ==
                  headerBytes,
              "header layout must fill exactly headerBytes");

constexpr std::uint32_t kLayoutTagRowMajor = 0;

/** Round @p n up to the section alignment. */
inline std::uint64_t
alignUp(std::uint64_t n)
{
    return (n + alignment - 1) / alignment * alignment;
}

void
requireLittleEndianHost(const char *what)
{
    if constexpr (std::endian::native != std::endian::little) {
        throw std::runtime_error(
            std::string("model_file: ") + what +
            " requires a little-endian host (the format is "
            "little-endian and queried in place)");
    }
}

/** Little-endian field accessors on raw byte images. */
void
putU32(unsigned char *p, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xff);
}

void
putU64(unsigned char *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xff);
}

std::uint32_t
getU32(const unsigned char *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t
getU64(const unsigned char *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

/** One section's table entry: absolute offset, padded size, checksum. */
struct SectionPlan
{
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
    std::uint32_t crc = 0;
};

/** Append @p v to @p bytes, little-endian. */
void
appendU64(std::vector<unsigned char> &bytes, std::uint64_t v)
{
    unsigned char buf[8];
    putU64(buf, v);
    bytes.insert(bytes.end(), buf, buf + 8);
}

/** Append @p len raw bytes from @p data to @p bytes. */
void
appendBytes(std::vector<unsigned char> &bytes, const void *data,
            std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    bytes.insert(bytes.end(), p, p + len);
}

/**
 * Side-memory section (item or level memory): {count, dim,
 * wordsPer} then the packed words of every hypervector. An absent
 * memory writes an all-zero header (count = 0).
 */
std::vector<unsigned char>
sideMemorySection(const ItemMemory *memory, std::size_t wordsPerRow)
{
    if (memory == nullptr || memory->size() == 0)
        return std::vector<unsigned char>(kMemoryHeaderBytes);
    const std::size_t count = memory->size();
    std::vector<unsigned char> bytes;
    appendU64(bytes, count);
    appendU64(bytes, memory->dim());
    appendU64(bytes, wordsPerRow);
    for (std::size_t i = 0; i < count; ++i) {
        appendBytes(bytes, (*memory)[i].data(),
                    wordsPerRow * sizeof(std::uint64_t));
    }
    return bytes;
}

/**
 * Copy the @p count side-memory vectors mapped at @p words into an
 * ItemMemory; a file without that section throws, naming it.
 */
ItemMemory
copySideMemory(const std::string &path, std::size_t section,
               const unsigned char *words, std::size_t count,
               const AssociativeMemory &am)
{
    if (count == 0) {
        throw std::logic_error("model_file: " + path + ": no " +
                               sectionName(section) + " section");
    }
    const std::size_t wordsPer = am.storage().wordsPerRow();
    std::vector<Hypervector> vectors;
    vectors.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        vectors.push_back(Hypervector::fromWords(
            am.dim(), reinterpret_cast<const std::uint64_t *>(words) +
                          i * wordsPer));
    }
    return ItemMemory::fromVectors(std::move(vectors));
}

} // namespace

const char *
sectionName(std::size_t section)
{
    switch (section) {
    case kShardTable:
        return "shard table";
    case kRowWords:
        return "row words";
    case kLabels:
        return "labels";
    case kItemMemory:
        return "item memory";
    case kLevelMemory:
        return "level memory";
    }
    return "unknown";
}

void
ModelWriter::write(const AssociativeMemory &am,
                   const SaveOptions &opts)
{
    requireLittleEndianHost("save");
    if (opts.items != nullptr && opts.items->dim() != am.dim()) {
        throw std::invalid_argument(
            "model_file: item memory dimension differs from the "
            "model dimension");
    }
    if (opts.levels != nullptr && opts.levels->dim() != am.dim()) {
        throw std::invalid_argument(
            "model_file: level memory dimension differs from the "
            "model dimension");
    }
    // The reader refuses a single level, so the writer never emits one.
    if (opts.levels != nullptr && opts.levels->size() == 1) {
        throw std::invalid_argument(
            "model_file: level memory with a single level");
    }

    // Every section but the row words is built whole, then padded;
    // the rows stream from the store, so a save never holds a second
    // copy of them.
    const PackedRows &store = am.storage();
    const std::size_t wordsPerRow = store.wordsPerRow();
    const std::size_t rowBytes =
        store.rows() * wordsPerRow * sizeof(std::uint64_t);
    std::array<std::vector<unsigned char>, kSectionCount> bytes;

    // The one shard: {firstRow 0, rows, head offset, tail offset 0},
    // its head the start of the row words section.
    appendU64(bytes[kShardTable], 0);
    appendU64(bytes[kShardTable], am.size());
    appendU64(bytes[kShardTable], headerBytes + alignUp(kShardEntryBytes));
    appendU64(bytes[kShardTable], 0);

    appendU64(bytes[kLabels], am.size());
    for (std::size_t id = 0; id < am.size(); ++id) {
        const std::string &label = am.labelOf(id);
        appendU64(bytes[kLabels], label.size());
        appendBytes(bytes[kLabels], label.data(), label.size());
    }

    bytes[kItemMemory] = sideMemorySection(opts.items, wordsPerRow);
    bytes[kLevelMemory] = sideMemorySection(opts.levels, wordsPerRow);

    // Lay the sections out back to back after the header, each
    // checksummed over exactly the bytes written for it.
    static const std::array<unsigned char, alignment> zeros{};
    std::array<SectionPlan, kSectionCount> sections;
    std::uint64_t cursor = headerBytes;
    for (std::size_t i = 0; i < kSectionCount; ++i) {
        sections[i].offset = cursor;
        if (i == kRowWords) {
            sections[i].size = alignUp(rowBytes);
            sections[i].crc = crc32c::update(
                crc32c::compute(store.data(), rowBytes), zeros.data(),
                sections[i].size - rowBytes);
        } else {
            bytes[i].resize(alignUp(bytes[i].size()));
            sections[i].size = bytes[i].size();
            sections[i].crc =
                crc32c::compute(bytes[i].data(), bytes[i].size());
        }
        cursor += sections[i].size;
    }

    // The writer always emits row-major rows in one shard: layout
    // tag 0, shard count 1, slice prefix 0.
    std::array<unsigned char, headerBytes> h{};
    std::memcpy(h.data() + kOffMagic, magic, sizeof(magic));
    putU32(h.data() + kOffVersion, formatVersion);
    putU64(h.data() + kOffDim, am.dim());
    putU64(h.data() + kOffRows, am.size());
    putU32(h.data() + kOffLayoutTag, kLayoutTagRowMajor);
    putU32(h.data() + kOffShardCount, 1);
    putU64(h.data() + kOffSlicePrefix, 0);
    putU64(h.data() + kOffWordsPerRow, wordsPerRow);
    putU64(h.data() + kOffFileSize, cursor);
    putU32(h.data() + kOffSectionCount, kSectionCount);
    for (std::size_t i = 0; i < kSectionCount; ++i) {
        unsigned char *e =
            h.data() + kOffSections + i * kSectionEntryBytes;
        putU64(e, sections[i].offset);
        putU64(e + 8, sections[i].size);
        putU32(e + 16, sections[i].crc);
    }
    putU32(h.data() + kOffHeaderCrc,
           crc32c::compute(h.data(), headerBytes));

    const auto emit = [this](const void *data, std::size_t len) {
        out.write(static_cast<const char *>(data),
                  static_cast<std::streamsize>(len));
    };
    emit(h.data(), h.size());
    for (std::size_t i = 0; i < kSectionCount; ++i) {
        if (i == kRowWords) {
            emit(store.data(), rowBytes);
            emit(zeros.data(), sections[i].size - rowBytes);
        } else {
            emit(bytes[i].data(), bytes[i].size());
        }
    }
    if (!out) {
        throw std::runtime_error(
            "model_file: write failed (stream error)");
    }
}

namespace
{

/**
 * Create an empty file beside @p path under a name no other save is
 * using, and return that name. O_EXCL instead of mkstemp, so the
 * model gets the mode (0666 less the umask) a plain open would give.
 */
std::string
createSibling(const std::string &path)
{
    static std::atomic<std::uint64_t> serial{0};
    for (;;) {
        const std::string tmp = path + ".tmp." +
                                std::to_string(::getpid()) + "." +
                                std::to_string(serial++);
        const int fd = ::open(tmp.c_str(),
                              O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                              0666);
        if (fd >= 0) {
            ::close(fd);
            return tmp;
        }
        if (errno != EEXIST) {
            throw std::runtime_error("model_file: cannot create " +
                                     tmp + ": " + std::strerror(errno));
        }
    }
}

} // namespace

void
save(const std::string &path, const AssociativeMemory &am,
     const SaveOptions &opts)
{
    TRACE_SPAN("save");
    const std::string tmp = createSibling(path);
    try {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        ModelWriter writer(out);
        writer.write(am, opts);
        out.close();
        if (!out) {
            throw std::runtime_error("model_file: write failed: " +
                                     tmp);
        }
        if (std::rename(tmp.c_str(), path.c_str()) != 0) {
            throw std::runtime_error("model_file: cannot move " + tmp +
                                     " to " + path + ": " +
                                     std::strerror(errno));
        }
    } catch (...) {
        std::remove(tmp.c_str());
        throw;
    }
}

ModelView::ModelView(const std::string &path)
    : ModelView(path, Options{})
{
}

ModelView::ModelView(const std::string &path, const Options &opts)
    : filePath(path)
{
    requireLittleEndianHost("load");
    try {
        openAndValidate(opts);
    } catch (...) {
        unmap();
        throw;
    }
}

ModelView::ModelView(ModelView &&other) noexcept
    : filePath(std::move(other.filePath)), base(other.base),
      mapBytes(other.mapBytes), fileVersion(other.fileVersion),
      headerCrc(other.headerCrc), itemCount(other.itemCount),
      itemWordsOffset(other.itemWordsOffset),
      levelCount(other.levelCount),
      levelWordsOffset(other.levelWordsOffset), am(std::move(other.am))
{
    other.base = nullptr;
    other.mapBytes = 0;
    other.am.reset();
}

ModelView::~ModelView()
{
    unmap();
}

void
ModelView::unmap() noexcept
{
    if (base != nullptr) {
        ::munmap(
            const_cast<void *>(static_cast<const void *>(base)),
            mapBytes);
        base = nullptr;
        mapBytes = 0;
    }
}

void
ModelView::openAndValidate(const Options &opts)
{
    const auto fail = [this](const std::string &what) -> void {
        throw std::runtime_error("model_file: " + filePath + ": " +
                                 what);
    };

    const int fd = ::open(filePath.c_str(), O_RDONLY);
    if (fd < 0)
        fail(std::string("cannot open: ") + std::strerror(errno));
    struct ::stat st = {};
    if (::fstat(fd, &st) != 0) {
        const int err = errno;
        ::close(fd);
        fail(std::string("cannot stat: ") + std::strerror(err));
    }
    const auto size = static_cast<std::size_t>(st.st_size);
    if (size < headerBytes) {
        ::close(fd);
        fail("truncated header: " + std::to_string(size) +
             " bytes, need " + std::to_string(headerBytes));
    }
    void *mapped =
        ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (mapped == MAP_FAILED)
        fail(std::string("mmap failed: ") + std::strerror(errno));
    base = static_cast<const unsigned char *>(mapped);
    mapBytes = size;

    // --- Header ---------------------------------------------------
    if (std::memcmp(base + kOffMagic, magic, sizeof(magic)) != 0)
        fail("bad magic (not an hdham model file)");
    fileVersion = getU32(base + kOffVersion);
    if (fileVersion != formatVersion) {
        fail("unsupported version " + std::to_string(fileVersion) +
             " (expected " + std::to_string(formatVersion) + ")");
    }
    headerCrc = getU32(base + kOffHeaderCrc);
    {
        std::array<unsigned char, headerBytes> image;
        std::memcpy(image.data(), base, headerBytes);
        putU32(image.data() + kOffHeaderCrc, 0);
        const std::uint32_t computed =
            crc32c::compute(image.data(), headerBytes);
        if (computed != headerCrc) {
            fail("header checksum mismatch (stored " +
                 std::to_string(headerCrc) + ", computed " +
                 std::to_string(computed) + ")");
        }
    }
    const std::uint64_t dim = getU64(base + kOffDim);
    const std::uint64_t rowCount = getU64(base + kOffRows);
    const std::uint32_t layoutTag = getU32(base + kOffLayoutTag);
    const std::uint32_t shardCount = getU32(base + kOffShardCount);
    const std::uint64_t slicePrefix = getU64(base + kOffSlicePrefix);
    const std::uint64_t wordsPerRow = getU64(base + kOffWordsPerRow);
    const std::uint64_t fileSizeField = getU64(base + kOffFileSize);
    const std::uint32_t sectionCount =
        getU32(base + kOffSectionCount);

    if (fileSizeField != size) {
        fail("truncated file: have " + std::to_string(size) +
             " bytes, header records " +
             std::to_string(fileSizeField));
    }
    if (sectionCount != kSectionCount) {
        fail("unexpected section count " +
             std::to_string(sectionCount) + " (expected " +
             std::to_string(kSectionCount) + ")");
    }
    if (dim == 0)
        fail("zero dimension");
    if (dim > (1ULL << 28))
        fail("implausible dimensionality " + std::to_string(dim));
    // Bound the row count before anything is sized by it: every
    // class needs at least an 8-byte label length in the labels
    // section, so more than fileSize/8 rows cannot fit.
    if (rowCount > size / 8) {
        fail("implausible row count " + std::to_string(rowCount) +
             " for a " + std::to_string(size) + "-byte file");
    }
    const std::uint64_t expectWords =
        (dim + Hypervector::bitsPerWord - 1) /
        Hypervector::bitsPerWord;
    if (wordsPerRow != expectWords) {
        fail("words-per-row field " + std::to_string(wordsPerRow) +
             " does not match dimension " + std::to_string(dim));
    }
    // Every writer emits row-major rows in one shard. A file whose
    // header records any other layout -- the sliced or multi-shard
    // files of earlier writers -- is refused before any row is bound.
    if (layoutTag != kLayoutTagRowMajor || shardCount != 1 ||
        slicePrefix != 0) {
        fail("unsupported layout: header records layout tag " +
             std::to_string(layoutTag) + ", " +
             std::to_string(shardCount) +
             (shardCount == 1 ? " shard" : " shards") +
             ", slice prefix " + std::to_string(slicePrefix) +
             " (this reader maps only row-major rows in one shard: "
             "layout tag 0, 1 shard, slice prefix 0)");
    }

    // --- Section table --------------------------------------------
    SectionPlan sections[kSectionCount];
    std::uint64_t expectedOffset = headerBytes;
    for (std::size_t i = 0; i < kSectionCount; ++i) {
        const unsigned char *e =
            base + kOffSections + i * kSectionEntryBytes;
        sections[i].offset = getU64(e);
        sections[i].size = getU64(e + 8);
        sections[i].crc = getU32(e + 16);
        // The size bound keeps expectedOffset <= size throughout,
        // so neither the accumulation nor any rowsBegin + size
        // computed from these entries can wrap past 2^64.
        if (sections[i].offset != expectedOffset ||
            sections[i].offset % alignment != 0 ||
            sections[i].size % alignment != 0 ||
            sections[i].size > size - expectedOffset) {
            fail(std::string("section table corrupt: ") +
                 sectionName(i) + " section at byte " +
                 std::to_string(sections[i].offset) +
                 " (expected byte " +
                 std::to_string(expectedOffset) + ")");
        }
        expectedOffset += sections[i].size;
    }
    if (expectedOffset != size) {
        fail("section table corrupt: sections end at byte " +
             std::to_string(expectedOffset) + ", file has " +
             std::to_string(size));
    }

    // --- Section checksums ----------------------------------------
    if (opts.verifyChecksums) {
        for (std::size_t i = 0; i < kSectionCount; ++i) {
            const std::uint32_t computed = crc32c::compute(
                base + sections[i].offset, sections[i].size);
            if (computed != sections[i].crc) {
                fail(std::string(sectionName(i)) +
                     " section checksum mismatch at byte " +
                     std::to_string(sections[i].offset) +
                     " (stored " + std::to_string(sections[i].crc) +
                     ", computed " + std::to_string(computed) + ")");
            }
        }
    }

    // --- Shard table ----------------------------------------------
    // The one entry: {firstRow 0, rows, head offset, tail offset 0},
    // its head an aligned offset in the row words section with room
    // for every row.
    if (kShardEntryBytes > sections[kShardTable].size)
        fail("shard table section too small for its entry");
    const unsigned char *shard = base + sections[kShardTable].offset;
    const std::uint64_t firstRow = getU64(shard);
    const std::uint64_t shardRows = getU64(shard + 8);
    const std::uint64_t headOffset = getU64(shard + 16);
    const std::uint64_t tailOffset = getU64(shard + 24);
    if (firstRow != 0) {
        fail("shard table corrupt: shard 0 starts at row " +
             std::to_string(firstRow) + ", expected 0");
    }
    if (shardRows != rowCount) {
        fail("shard table corrupt: shard 0 covers " +
             std::to_string(shardRows) + " rows, header records " +
             std::to_string(rowCount));
    }
    // A row is at least 1 word and at most wordsPerRow <= 2^22 words
    // (dim <= 2^28), so its byte size cannot overflow or be zero; the
    // bound is checked in division form, with no product of
    // untrusted values.
    const std::uint64_t rowsBegin = sections[kRowWords].offset;
    const std::uint64_t rowsEnd = rowsBegin + sections[kRowWords].size;
    if (headOffset % alignment != 0 || headOffset < rowsBegin ||
        headOffset > rowsEnd ||
        rowCount > (rowsEnd - headOffset) /
                       (wordsPerRow * sizeof(std::uint64_t))) {
        fail("shard 0 head region at byte " +
             std::to_string(headOffset) +
             " falls outside the row words section");
    }
    if (tailOffset != 0)
        fail("shard 0 records a tail region in a row-major layout");

    // --- Labels ---------------------------------------------------
    std::vector<std::string> labels;
    {
        const std::uint64_t begin = sections[kLabels].offset;
        const std::uint64_t end = begin + sections[kLabels].size;
        std::uint64_t at = begin;
        if (at + 8 > end)
            fail("labels section too small for its count");
        const std::uint64_t count = getU64(base + at);
        at += 8;
        if (count != rowCount) {
            fail("labels section records " + std::to_string(count) +
                 " labels for " + std::to_string(rowCount) +
                 " classes");
        }
        labels.reserve(static_cast<std::size_t>(count));
        for (std::uint64_t i = 0; i < count; ++i) {
            if (at + 8 > end) {
                fail("labels section truncated at byte " +
                     std::to_string(at));
            }
            const std::uint64_t len = getU64(base + at);
            at += 8;
            if (len > end - at) {
                fail("label " + std::to_string(i) + " at byte " +
                     std::to_string(at) + " overruns its section");
            }
            labels.emplace_back(
                reinterpret_cast<const char *>(base + at),
                static_cast<std::size_t>(len));
            at += len;
        }
    }

    // --- Side memories --------------------------------------------
    const auto parseSideMemory = [&](std::size_t section,
                                     std::size_t *count,
                                     std::size_t *wordsOffset) {
        const std::uint64_t begin = sections[section].offset;
        const std::uint64_t sizeOf = sections[section].size;
        if (sizeOf < kMemoryHeaderBytes) {
            fail(std::string(sectionName(section)) +
                 " section too small for its header");
        }
        const std::uint64_t n = getU64(base + begin);
        const std::uint64_t memDim = getU64(base + begin + 8);
        const std::uint64_t wordsPer = getU64(base + begin + 16);
        if (n == 0) {
            *count = 0;
            *wordsOffset = 0;
            return;
        }
        if (memDim != dim || wordsPer != wordsPerRow) {
            fail(std::string(sectionName(section)) + " dimension " +
                 std::to_string(memDim) +
                 " does not match the model dimension " +
                 std::to_string(dim));
        }
        if (n > (1ULL << 24)) {
            fail(std::string("implausible ") + sectionName(section) +
                 " count " + std::to_string(n));
        }
        if (kMemoryHeaderBytes +
                n * wordsPer * sizeof(std::uint64_t) >
            sizeOf) {
            fail(std::string(sectionName(section)) +
                 " words overrun their section");
        }
        *count = static_cast<std::size_t>(n);
        *wordsOffset =
            static_cast<std::size_t>(begin + kMemoryHeaderBytes);
    };
    parseSideMemory(kItemMemory, &itemCount, &itemWordsOffset);
    parseSideMemory(kLevelMemory, &levelCount, &levelWordsOffset);
    if (levelCount == 1)
        fail("level memory with a single level");

    // --- Bind -----------------------------------------------------
    // The rows in place, zero-copy.
    am.emplace(static_cast<std::size_t>(dim));
    am->bindExternal(
        reinterpret_cast<const std::uint64_t *>(base + headOffset),
        static_cast<std::size_t>(rowCount), std::move(labels));
}

ItemMemory
ModelView::itemMemory() const
{
    return copySideMemory(filePath, kItemMemory, base + itemWordsOffset,
                          itemCount, *am);
}

ItemMemory
ModelView::levelMemory() const
{
    return copySideMemory(filePath, kLevelMemory, base + levelWordsOffset,
                          levelCount, *am);
}

} // namespace hdham::modelfile
