/**
 * @file
 * hdham.model.v1: the versioned, mmap-able on-disk model format.
 *
 * Serving millions of users needs instant cold start: a worker must
 * answer queries moments after exec, from models too large to
 * deserialize row by row. This module persists a trained
 * AssociativeMemory -- the PackedRows class store as its row-major
 * words, the class labels, and optionally the item memory the
 * encoder was trained with and a level memory, both as ItemMemory
 * tables -- in a 64-byte-aligned little-endian
 * file that a ModelView maps read-only and queries *in place*:
 * nearest/topK/searchBatch, pruning and every distance kernel run on
 * the mapped words directly, bit-identical to the in-RAM store, with
 * zero per-row deserialization on the load path (the loader touches
 * only the header and, by default, the per-section CRC32C
 * checksums). N processes mapping the same file share one physical
 * copy of the model.
 *
 * ## Byte layout (all integers little-endian; full spec in
 * ## docs/SERIALIZATION.md)
 *
 *   [0, 192)          header (fixed size, CRC32C-protected)
 *   sections[0..4]    64-byte-aligned, mutually contiguous, each
 *                     covered by a CRC32C recorded in the header:
 *     0 shard table   one entry {firstRow 0, rows, headOffset,
 *                     tailOffset 0}
 *     1 row words     every row's words, row-major, from headOffset
 *     2 labels        count, then {len, bytes} per class
 *     3 item memory   count, dim, wordsPer, packed words (count may
 *                     be 0: section carries only its empty header)
 *     4 level memory  same encoding as the item memory
 *
 * Section sizes include their trailing alignment padding, so every
 * byte of the file past the header belongs to exactly one checksummed
 * section: any flipped bit or truncation is rejected at load with a
 * precise error, never a crash or a silently wrong model.
 *
 * There is one row layout: row-major rows in one shard (header
 * layout tag 0, shard count 1, slice prefix 0), which is what the
 * writer emits and all the reader maps. Earlier writers could also
 * split the rows into several shards and bit-slice them; the reader
 * refuses such a file, naming the layout its header records.
 *
 * Compatibility rules: the magic and version gate the whole file; a
 * reader must reject any version it does not know. Fields marked
 * reserved are written as zero and ignored on read, so v1 readers
 * tolerate future flag bits only via a version bump.
 *
 * This is the only model format: ModelView rejects any other file
 * with "bad magic", and core/model_loader.hh opens every model
 * through it.
 */

#ifndef HDHAM_CORE_MODEL_FILE_HH
#define HDHAM_CORE_MODEL_FILE_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "core/assoc_memory.hh"
#include "core/item_memory.hh"

namespace hdham::modelfile
{

/** File magic, first 8 bytes of every hdham.model.* file. */
inline constexpr char magic[8] = {'H', 'D', 'H', 'A',
                                  'M', 'M', 'D', 'L'};

/** Current format version. */
inline constexpr std::uint32_t formatVersion = 1;

/** Alignment of the header size and every section offset. */
inline constexpr std::size_t alignment = 64;

/** Fixed header size in bytes (3 x 64). */
inline constexpr std::size_t headerBytes = 192;

/** Section indices in the header's section table. */
enum Section : std::size_t
{
    kShardTable = 0,
    kRowWords = 1,
    kLabels = 2,
    kItemMemory = 3,
    kLevelMemory = 4,
    kSectionCount = 5,
};

/** Human-readable section name for error messages. */
const char *sectionName(std::size_t section);

/** Optional side memories persisted next to the class store. */
struct SaveOptions
{
    /** Item memory the encoder was trained with (null = omit). */
    const ItemMemory *items = nullptr;
    /** Level memory section, carried over from an input model
     *  (null = omit). */
    const ItemMemory *levels = nullptr;
};

/**
 * Streaming hdham.model.v1 writer.
 *
 * One pass over the live model. The small sections (shard table,
 * labels, item and level memory) are built in memory and padded;
 * each section's size and CRC32C come from the bytes about to be
 * written, the row words' straight from the PackedRows array and
 * their padding. The header, the small sections and the rows then
 * stream to the output, the rows from the store itself, so the
 * class store is never copied. The stream never needs to seek, so
 * the writer works on pipes as well as files. The rows are always
 * written row-major in one shard.
 */
class ModelWriter
{
  public:
    explicit ModelWriter(std::ostream &out) : out(out) {}

    /**
     * Write @p am (and any side memories in @p opts) as one complete
     * hdham.model.v1 document. @throws std::runtime_error when the
     * stream fails.
     */
    void write(const AssociativeMemory &am,
               const SaveOptions &opts = {});

  private:
    std::ostream &out;
};

/**
 * Save @p am to @p path via a ModelWriter. The model is written to a
 * sibling file that is then renamed over @p path, so a reader that
 * maps the old file keeps its pages intact -- a shorter file written
 * in place would fault them (SIGBUS), a same-size one would change
 * them -- and a failed save leaves @p path as it was.
 * @throws std::runtime_error on any I/O failure.
 */
void save(const std::string &path, const AssociativeMemory &am,
          const SaveOptions &opts = {});

/**
 * Read-only zero-copy view of an hdham.model.v1 file.
 *
 * The constructor maps the file (PROT_READ), validates the header
 * and -- unless disabled -- every section checksum, then binds an
 * AssociativeMemory to the mapped row words in place. Validation
 * reads no row into any per-row structure: load cost is O(header)
 * plus one sequential checksum pass, independent of how the rows
 * will later be queried. Every malformed input (truncation at any
 * byte, any flipped bit, bad magic/version/offsets) throws
 * std::runtime_error with the failing section and byte offset.
 *
 * memory() serves queries directly from the mapping and is
 * bit-identical to the store the model was saved from, for every
 * kernel and thread count. The mapped memory is read-only: store()
 * throws; attachMetrics works normally. A file whose header records
 * any layout but row-major rows in one shard is refused. The view
 * must outlive every reference obtained from it.
 */
class ModelView
{
  public:
    struct Options
    {
        /**
         * Verify the per-section CRC32C checksums (one streaming
         * pass over the file). Disable only for benchmarks that
         * measure the pure mapping cost.
         */
        bool verifyChecksums = true;
    };

    explicit ModelView(const std::string &path);
    ModelView(const std::string &path, const Options &opts);
    ~ModelView();

    ModelView(const ModelView &) = delete;
    ModelView &operator=(const ModelView &) = delete;
    ModelView(ModelView &&other) noexcept;
    ModelView &operator=(ModelView &&) = delete;

    /** Path the view was opened from. */
    const std::string &path() const { return filePath; }

    /** Format version of the mapped file. */
    std::uint32_t version() const { return fileVersion; }

    /**
     * The header's CRC32C -- a fingerprint of the entire model
     * content, since the header records every section's checksum.
     * This is the "model.checksum" the CLI reports in the metrics
     * info map.
     */
    std::uint32_t checksum() const { return headerCrc; }

    /** Total mapped bytes. */
    std::size_t fileSize() const { return mapBytes; }

    /**
     * First byte of the mapping -- with fileSize(), the range
     * perf::residency() inspects for the mmap residency gauges.
     * Read-only; the mapped file's lifetime is the view's.
     */
    const void *mapBase() const { return base; }

    /** Dimensionality of the stored model. */
    std::size_t dim() const { return memory().dim(); }

    /** Number of stored classes. */
    std::size_t classes() const { return memory().size(); }

    /**
     * The mapped associative memory, queried zero-copy in place.
     * Non-const access allows attachMetrics; the stored rows
     * themselves are immutable (mapped read-only).
     */
    AssociativeMemory &memory() { return *am; }
    const AssociativeMemory &memory() const { return *am; }

    /** Whether the file carries an item memory section. */
    bool hasItemMemory() const { return itemCount > 0; }

    /**
     * Materialize the persisted item memory (copies count x dim
     * bits; the class rows stay mapped). @pre hasItemMemory().
     */
    ItemMemory itemMemory() const;

    /** Whether the file carries a level memory section. */
    bool hasLevelMemory() const { return levelCount > 0; }

    /** Materialize the persisted level memory. @pre hasLevelMemory(). */
    ItemMemory levelMemory() const;

  private:
    void openAndValidate(const Options &opts);
    void unmap() noexcept;

    std::string filePath;
    const unsigned char *base = nullptr;
    std::size_t mapBytes = 0;
    std::uint32_t fileVersion = 0;
    std::uint32_t headerCrc = 0;
    /** Offsets/counts of the materializable side sections. */
    std::size_t itemCount = 0;
    std::size_t itemWordsOffset = 0;
    std::size_t levelCount = 0;
    std::size_t levelWordsOffset = 0;
    std::optional<AssociativeMemory> am;
};

} // namespace hdham::modelfile

#endif // HDHAM_CORE_MODEL_FILE_HH
