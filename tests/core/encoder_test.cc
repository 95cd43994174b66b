/**
 * @file
 * Unit tests for the n-gram text encoder.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/bundler.hh"
#include "core/encoder.hh"
#include "core/item_memory.hh"
#include "core/ops.hh"
#include "core/random.hh"
#include "core/trace.hh"

namespace
{

using hdham::Bundler;
using hdham::Encoder;
using hdham::Hypervector;
using hdham::ItemMemory;
using hdham::Rng;
using hdham::TextAlphabet;

class EncoderTest : public ::testing::Test
{
  protected:
    ItemMemory items{TextAlphabet::size, 2048, 99};
    Encoder encoder{items, 3};
};

TEST_F(EncoderTest, TrigramMatchesPaperFormula)
{
    // rho(rho(A) ^ B) ^ C == rho^2(A) ^ rho(B) ^ C (Section II-A.1)
    const Hypervector &A = items[0];
    const Hypervector &B = items[1];
    const Hypervector &C = items[2];
    const Hypervector viaNesting =
        hdham::permute(hdham::permute(A) ^ B) ^ C;
    const Hypervector viaFlat =
        A.rotated(2) ^ B.rotated(1) ^ C;
    EXPECT_EQ(viaNesting, viaFlat);
    EXPECT_EQ(encoder.encodeNgram({0, 1, 2}), viaFlat);
}

TEST_F(EncoderTest, DistinguishesSequenceOrder)
{
    // a-b-c must be uncorrelated with a-c-b.
    const Hypervector abc = encoder.encodeNgram({0, 1, 2});
    const Hypervector acb = encoder.encodeNgram({0, 2, 1});
    EXPECT_NEAR(abc.hamming(acb), 1024.0, 150.0);
}

TEST_F(EncoderTest, NgramIsDissimilarToItsLetters)
{
    const Hypervector abc = encoder.encodeNgram({0, 1, 2});
    for (std::size_t s : {0u, 1u, 2u})
        EXPECT_NEAR(abc.hamming(items[s]), 1024.0, 150.0);
}

TEST_F(EncoderTest, EncodeIntoCountsNgrams)
{
    Bundler bundler(2048);
    EXPECT_EQ(encoder.encodeInto("abcde", bundler), 3u);
    EXPECT_EQ(encoder.encodeInto("abc", bundler), 1u);
    EXPECT_EQ(encoder.encodeInto("ab", bundler), 0u);
    EXPECT_EQ(encoder.encodeInto("", bundler), 0u);
}

TEST_F(EncoderTest, EncodeIntoMatchesManualBundling)
{
    // encodeInto hands n-grams to the bundler a kernel block at a
    // time without forming them. For n = 1..5 at a ragged D, every
    // n-gram count from 0 to 2 * kBlock + 1 (so every partial last
    // block) must bundle exactly like encodeNgram + add, down to the
    // tie draws the majority takes.
    const std::size_t dim = 1000;
    const std::string source =
        "the quick brown fox jumps over the lazy dog";
    for (std::size_t n = 1; n <= 5; ++n) {
        const ItemMemory seeds(TextAlphabet::size, dim, 40 + n);
        const Encoder enc(seeds, n);
        std::vector<std::size_t> symbols(n);
        for (std::size_t len = 0; len <= 2 * Bundler::kBlock + n; ++len) {
            SCOPED_TRACE("n=" + std::to_string(n) +
                         " len=" + std::to_string(len));
            const std::string text = source.substr(0, len);
            Bundler viaEncoder(dim);
            const std::size_t grams = enc.encodeInto(text, viaEncoder);

            Bundler manual(dim);
            for (std::size_t i = 0; i + n <= text.size(); ++i) {
                for (std::size_t k = 0; k < n; ++k)
                    symbols[k] = TextAlphabet::symbolOf(text[i + k]);
                manual.add(enc.encodeNgram(symbols));
            }
            ASSERT_EQ(grams, manual.count());
            ASSERT_EQ(viaEncoder.count(), manual.count());
            if (grams == 0)
                continue;
            Rng a(len), b(len);
            EXPECT_EQ(viaEncoder.majority(a), manual.majority(b));
            EXPECT_EQ(a.next(), b.next());
        }
    }
}

TEST_F(EncoderTest, LongTextsBundleLikeStreaming)
{
    // A text with at least 27^n n-grams is counted first, and each
    // distinct n-gram is bundled once per set bit of its count. For
    // n = 1..3, texts one n-gram short of 27^n (streamed), exactly
    // 27^n and past it (counted), and a mostly-space text whose
    // commonest n-gram repeats more than 2^12 times, must bundle
    // exactly like encodeNgram + add: every count, the majority and
    // its tie draws.
    const std::size_t dim = 1000;
    const std::string mixed = "abcdefghijklmnopqrstuvwxyz XYZ.,7";
    for (std::size_t n = 1; n <= 3; ++n) {
        const ItemMemory seeds(TextAlphabet::size, dim, 60 + n);
        const Encoder enc(seeds, n);
        std::size_t space = 1;
        for (std::size_t k = 0; k < n; ++k)
            space *= TextAlphabet::size;
        Rng rng(n);
        std::vector<std::string> texts;
        for (const std::size_t grams :
             {space - 1, space, space + 1, 3 * space + 7}) {
            std::string text;
            for (std::size_t i = 0; i < grams + n - 1; ++i)
                text.push_back(mixed[rng.nextBelow(mixed.size())]);
            texts.push_back(text);
        }
        std::string sparse;
        for (std::size_t i = 0; i < space + 6000; ++i)
            sparse.push_back(rng.nextBelow(8) == 0
                                 ? mixed[rng.nextBelow(26)]
                                 : ' ');
        std::size_t blanks = 0;
        for (std::size_t i = 0; i + n <= sparse.size(); ++i)
            blanks += sparse.compare(i, n, std::string(n, ' ')) == 0;
        ASSERT_GT(blanks, 1u << 12);
        texts.push_back(sparse);

        std::vector<std::size_t> symbols(n);
        for (const std::string &text : texts) {
            SCOPED_TRACE("n=" + std::to_string(n) +
                         " chars=" + std::to_string(text.size()));
            Bundler viaEncoder(dim);
            const std::size_t grams = enc.encodeInto(text, viaEncoder);
            Bundler manual(dim);
            for (std::size_t i = 0; i + n <= text.size(); ++i) {
                for (std::size_t k = 0; k < n; ++k)
                    symbols[k] = TextAlphabet::symbolOf(text[i + k]);
                manual.add(enc.encodeNgram(symbols));
            }
            ASSERT_EQ(grams, text.size() - n + 1);
            ASSERT_EQ(viaEncoder.count(), manual.count());
            for (std::size_t i = 0; i < dim; ++i)
                ASSERT_EQ(viaEncoder.onesCount(i), manual.onesCount(i))
                    << "component " << i;
            Rng a(grams), b(grams);
            EXPECT_EQ(viaEncoder.majority(a), manual.majority(b));
            EXPECT_EQ(a.next(), b.next());
        }
    }
}

TEST_F(EncoderTest, ShortTextsMatchManualBundling)
{
    // encode() takes the majority of a text with at most 255 n-grams
    // (distance::kMaxPassInputs) in registers, and streams a
    // longer one to a Bundler. For n = 1..4 and every n-gram count
    // from 1 to 300 (both sides of the cut-off, even and odd counts),
    // a random text must encode exactly like encodeNgram + add +
    // majority: the vector and the tie draws. So must a one-letter
    // text of 255 and of 256 n-grams, whose counts are all 0 or m.
    const std::size_t dim = 1000;
    const std::string letters = "abcdefghijklmnopqrstuvwxyz ";
    for (std::size_t n = 1; n <= 4; ++n) {
        const ItemMemory seeds(TextAlphabet::size, dim, 80 + n);
        const Encoder enc(seeds, n);
        Rng rng(n);
        std::vector<std::string> texts;
        for (std::size_t grams = 1; grams <= 300; ++grams) {
            std::string text;
            for (std::size_t i = 0; i < grams + n - 1; ++i)
                text.push_back(letters[rng.nextBelow(letters.size())]);
            texts.push_back(text);
        }
        texts.push_back(std::string(255 + n - 1, 'q'));
        texts.push_back(std::string(256 + n - 1, 'q'));

        std::vector<std::size_t> symbols(n);
        for (const std::string &text : texts) {
            const std::size_t grams = text.size() - n + 1;
            SCOPED_TRACE("n=" + std::to_string(n) +
                         " grams=" + std::to_string(grams) +
                         " text=" + text.substr(0, 8));
            Bundler manual(dim);
            for (std::size_t i = 0; i < grams; ++i) {
                for (std::size_t k = 0; k < n; ++k)
                    symbols[k] = TextAlphabet::symbolOf(text[i + k]);
                manual.add(enc.encodeNgram(symbols));
            }
            Rng a(grams), b(grams);
            ASSERT_EQ(enc.encode(text, a), manual.majority(b));
            ASSERT_EQ(a.next(), b.next());
        }
    }
}

TEST(EncoderCeilingTest, RefusesTextsPastTheBundlersCount)
{
    // encodeInto checks a text's n-gram count against the bundler's
    // 2^32 ceiling before it adds or counts anything, on both paths.
    // A unigram encoder counts any text of 27 n-grams or more.
    const ItemMemory letters(TextAlphabet::size, 200, 7);
    const Encoder unigrams(letters, 1);
    const std::uint64_t row[4] = {};
    const std::uint64_t *rows[] = {row};
    for (const std::size_t room : {std::size_t{20}, std::size_t{40}}) {
        SCOPED_TRACE(room);
        Bundler b(unigrams.dim());
        // Bundler::kMaxCount - room, in shifted passes of one vector.
        const std::uint64_t target = Bundler::kMaxCount - room;
        for (unsigned shift = 0; shift < 32; ++shift) {
            if ((target >> shift) & 1)
                b.addBound(rows, 1, 1, shift);
        }
        ASSERT_EQ(b.count(), target);
        EXPECT_THROW(unigrams.encodeInto(std::string(room + 1, 'a'), b),
                     std::length_error);
        EXPECT_EQ(b.count(), target);
        EXPECT_EQ(unigrams.encodeInto(std::string(room, 'b'), b), room);
        EXPECT_EQ(b.count(), Bundler::kMaxCount);
        // The earlier passes added zero rows, so each component
        // counts the b seed's bit `room` times.
        const Hypervector &seed = letters[TextAlphabet::symbolOf('b')];
        for (std::size_t i = 0; i < unigrams.dim(); ++i)
            ASSERT_EQ(b.onesCount(i), seed.get(i) ? room : 0) << i;
    }
}

TEST_F(EncoderTest, EncodeRejectsShortText)
{
    Rng rng(2);
    EXPECT_THROW(encoder.encode("ab", rng), std::invalid_argument);
}

TEST_F(EncoderTest, EncodeIsDeterministicGivenSeed)
{
    Rng a(3), b(3);
    EXPECT_EQ(encoder.encode("hello world", a),
              encoder.encode("hello world", b));
}

TEST_F(EncoderTest, SimilarTextsAreCloserThanDissimilar)
{
    Rng rng(4);
    const std::string base =
        "the quick brown fox jumps over the lazy dog";
    const std::string similar =
        "the quick brown fox jumps over the lazy cat";
    const std::string different =
        "zyx wvu tsr qpo nml kji hgf edc ba zz yy xx";
    const Hypervector hvBase = encoder.encode(base, rng);
    const Hypervector hvSim = encoder.encode(similar, rng);
    const Hypervector hvDiff = encoder.encode(different, rng);
    EXPECT_LT(hvBase.hamming(hvSim), hvBase.hamming(hvDiff));
}

TEST_F(EncoderTest, CaseAndPunctuationInsensitive)
{
    Rng a(5), b(5);
    EXPECT_EQ(encoder.encode("Hello World", a),
              encoder.encode("hello world", b));
}

TEST(EncoderConfigTest, BuildIsTracedAsEncoderBuild)
{
    const ItemMemory items(TextAlphabet::size, 256, 5);
    hdham::trace::Tracer tracer;
    hdham::trace::setActive(&tracer);
    const Encoder encoder(items, 3);
    hdham::trace::setActive(nullptr);
    const auto events = tracer.events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_STREQ(events[0].second.name, "encoder.build");
}

TEST(EncoderConfigTest, RejectsZeroN)
{
    ItemMemory items(27, 256, 1);
    EXPECT_THROW(Encoder(items, 0), std::invalid_argument);
}

TEST(EncoderConfigTest, RejectsItemMemoryShorterThanTheAlphabet)
{
    // encode() indexes the row table by TextAlphabet::symbolOf, 0-26:
    // an item memory of fewer seeds would be read past its end, so
    // the encoder refuses it, naming both counts, before any row.
    const ItemMemory five(5, 256, 1);
    try {
        const Encoder encoder(five, 3);
        FAIL() << "a 5-seed item memory must be rejected";
    } catch (const std::invalid_argument &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(" 5 "), std::string::npos) << what;
        EXPECT_NE(what.find(" 27 "), std::string::npos) << what;
    }
    const ItemMemory almost(TextAlphabet::size - 1, 256, 1);
    EXPECT_THROW(Encoder(almost, 3), std::invalid_argument);
    const ItemMemory full(TextAlphabet::size, 256, 1);
    EXPECT_NO_THROW(Encoder(full, 3));
}

class EncoderNgramSizeTest
    : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(EncoderNgramSizeTest, NgramCountAndDeterminism)
{
    const std::size_t n = GetParam();
    ItemMemory items(TextAlphabet::size, 1024, 7);
    Encoder encoder(items, n);
    EXPECT_EQ(encoder.ngramSize(), n);
    Bundler bundler(1024);
    const std::string text = "abcdefghij";
    EXPECT_EQ(encoder.encodeInto(text, bundler),
              text.size() - n + 1);
    Rng a(6), b(6);
    EXPECT_EQ(encoder.encode(text, a), encoder.encode(text, b));
}

INSTANTIATE_TEST_SUITE_P(Sizes, EncoderNgramSizeTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(EncoderNgramSizeTest, UnigramEncoderBundlesLetters)
{
    ItemMemory items(TextAlphabet::size, 1024, 8);
    Encoder encoder(items, 1);
    EXPECT_EQ(encoder.encodeNgram({4}), items[4]);
}

} // namespace
