/**
 * @file
 * Streaming majority accumulator for bundling many hypervectors.
 *
 * Training a language hypervector bundles on the order of 10^5..10^6
 * trigram hypervectors (Section II-A). Materializing them for
 * ops::bundle would be prohibitively slow and large, so Bundler keeps
 * per-component ones-counts and finalizes with a single majority pass.
 *
 * The counts are bit-sliced: plane p holds bit p of every component's
 * ones-count, packed 64 components per word like a hypervector, so
 * one word operation advances 64 counters. The counting kernel takes
 * up to distance::kMaxPassInputs = 255 vectors per pass: a carry-save
 * adder tree sums them, 16 at a time, into kSumPlanes = 8 register
 * planes, and that sum is added to the wide planes once per pass. A
 * vector is given as the word rows whose XOR it is, so the encoder's
 * n-gram rho^2(A) ^ rho(B) ^ C is formed in registers and never
 * stored. addBound() hands the kernel up to 255 vectors per pass.
 * Single add() calls are copied into a pending block of kBlock = 16
 * rows that the same kernel counts when it fills or before a read.
 * Planes are added as the count grows. The counts are 32-bit: add()
 * and addBound() refuse, with std::length_error and before changing
 * anything, an input that would take count() to 2^32.
 *
 * addBound() can weight its vectors: with shift s, each counts 2^s
 * times. That is the same kernel run on the planes from plane s up,
 * so each pass's sum lands at bit s of every count. The encoder
 * bundles a long text this way, each distinct n-gram once per set
 * bit of its count (core/encoder.hh).
 *
 * The counting kernel is the active kernel tier's (core/distance.hh),
 * at that tier's vector width: 1, 2, 4 or 8 words per step.
 * HDHAM_KERNEL picks it together with the Hamming kernel. Every
 * tier computes the same counts, so the choice never changes a count,
 * a majority or the Rng draws.
 *
 * majority() is two steps: a bit-sliced compare of every count with
 * half the input count, which yields a greater mask and a tie mask,
 * then fillTies(), which breaks the ties from the Rng in ascending
 * component order. The encoder's short-text path gets the same two
 * masks from the active tier's majority kernel, which counts in
 * registers, and completes them with the same fillTies(), so a text
 * draws the same ties whichever path encodes it.
 */

#ifndef HDHAM_CORE_BUNDLER_HH
#define HDHAM_CORE_BUNDLER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/hypervector.hh"
#include "core/random.hh"

namespace hdham
{

/**
 * Accumulates hypervectors and produces their component-wise majority.
 */
class Bundler
{
  public:
    /**
     * Single add()s copied into the pending block before the counting
     * kernel counts them in one pass.
     */
    static constexpr std::size_t kBlock = 16;

    /**
     * Planes that hold one kernel pass's 0..255 sum, the kernel's
     * register planes (distance::kRegisterPlanes): the kernel adds to
     * at least this many from the pass's shift up, so a Bundler never
     * has fewer.
     */
    static constexpr std::size_t kSumPlanes = 8;

    /** Most inputs a Bundler counts: its counts are 32-bit. */
    static constexpr std::uint64_t kMaxCount = 0xffffffffULL;

    /** Create an accumulator for dimension @p dim. */
    explicit Bundler(std::size_t dim);

    /** Dimensionality of accepted hypervectors. */
    std::size_t dim() const { return numBits; }

    /** Number of hypervectors accumulated so far. */
    std::uint64_t count() const { return counted + pendingCount; }

    /**
     * Accumulate one hypervector.
     * @pre hv.dim() == dim().
     * @throws std::length_error, changing nothing, when count() is
     * already kMaxCount.
     */
    void add(const Hypervector &hv);

    /**
     * Accumulate @p count bound vectors without materializing them:
     * vector j is the XOR of the @p arity word rows
     * factors[j * arity] .. factors[j * arity + arity - 1], each laid
     * out like Hypervector::data() for dim() components (clean tail).
     * Each vector counts 2^@p shift times: the result equals
     * 2^shift add() calls of every such XOR, in any order. The
     * counting kernel takes them up to distance::kMaxPassInputs at a
     * time.
     *
     * @pre arity > 0 when count > 0.
     * @throws std::length_error, changing nothing, when count > 0 and
     * the count * 2^shift inputs would take count() past kMaxCount.
     */
    void addBound(const std::uint64_t *const *factors, std::size_t arity,
                  std::size_t count, unsigned shift = 0);

    /**
     * Ones-count of component @p i over everything added so far.
     * @pre i < dim().
     */
    std::uint32_t onesCount(std::size_t i) const;

    /**
     * Finalize: component-wise majority of all added hypervectors.
     * Components with an exact tie (possible only for an even count)
     * are broken by a fair coin from @p rng, as the paper's augmented
     * majority requires. Ties draw in ascending component order.
     *
     * The accumulator remains valid and can keep accepting inputs.
     *
     * @pre count() > 0.
     */
    Hypervector majority(Rng &rng) const;

    /**
     * Break a majority's ties: for each set bit of the tie mask
     * ties[0 .. words), in ascending component order, draw one
     * rng.next() and set that bit of @p greater when bit 63 of the
     * draw is clear (the coin nextBool() flips). This is the one tie
     * rule of every majority in the library.
     */
    static void fillTies(std::uint64_t *greater,
                         const std::uint64_t *ties, std::size_t words,
                         Rng &rng);

    /** Reset to the empty state. */
    void clear();

  private:
    /**
     * Throw std::length_error unless @p count inputs, each counting
     * 2^@p shift times, keep count() within kMaxCount.
     */
    void checkRoom(std::uint64_t count, unsigned shift) const;

    /**
     * Add planes until @p more further inputs cannot carry out of
     * them, and until there are at least @p least.
     */
    void growPlanes(std::uint64_t more, std::size_t least) const;

    /**
     * Add @p m <= distance::kMaxPassInputs bound vectors (see
     * addBound), each counting 2^@p shift times, to the planes, which
     * growPlanes(m << shift, shift + kSumPlanes) has made room in,
     * in one pass of the active tier's counting kernel.
     */
    void accumulate(const std::uint64_t *const *factors,
                    std::size_t arity, std::size_t m,
                    unsigned shift) const;

    /** Count the pending single adds into the planes. */
    void foldPending() const;

    /**
     * The majority's masks from the planes, numWords words each:
     * @p greater has the components whose count exceeds half of
     * count(), @p ties those whose count is exactly half of it.
     * @pre nothing is pending.
     */
    void compare(std::uint64_t *greater, std::uint64_t *ties) const;

    /** First word of count plane @p p. */
    std::uint64_t *
    plane(std::size_t p) const
    {
        return storage.data() + (kBlock + p) * numWords;
    }

    std::size_t numBits;
    std::size_t numWords;
    /** Inputs counted into the planes. */
    mutable std::uint64_t counted = 0;
    /** Number of count planes. */
    mutable std::size_t planeCount;
    /** Single adds copied into the pending block, not yet counted. */
    mutable std::size_t pendingCount = 0;
    /**
     * The pending block, kBlock rows of numWords words, followed by
     * the planeCount count planes of numWords words each.
     */
    mutable std::vector<std::uint64_t> storage;
};

} // namespace hdham

#endif // HDHAM_CORE_BUNDLER_HH
