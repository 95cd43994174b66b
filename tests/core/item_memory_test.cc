/**
 * @file
 * Unit tests for the item memory and the text alphabet.
 */

#include <gtest/gtest.h>

#include "core/item_memory.hh"

namespace
{

using hdham::ItemMemory;
using hdham::TextAlphabet;

TEST(ItemMemoryTest, SizesAndDim)
{
    ItemMemory items(27, 1000, 1);
    EXPECT_EQ(items.size(), 27u);
    EXPECT_EQ(items.dim(), 1000u);
    EXPECT_EQ(items[0].dim(), 1000u);
}

TEST(ItemMemoryTest, SeedsAreBalanced)
{
    ItemMemory items(27, 10000, 2);
    for (std::size_t i = 0; i < items.size(); ++i)
        EXPECT_EQ(items[i].popcount(), 5000u);
}

TEST(ItemMemoryTest, DeterministicPerSeed)
{
    ItemMemory a(27, 512, 42), b(27, 512, 42);
    for (std::size_t i = 0; i < 27; ++i)
        EXPECT_EQ(a[i], b[i]);
}

TEST(ItemMemoryTest, DifferentSeedsDiffer)
{
    ItemMemory a(5, 512, 1), b(5, 512, 2);
    EXPECT_NE(a[0], b[0]);
}

TEST(ItemMemoryTest, SeedsAreNearlyOrthogonal)
{
    // The paper's "27 unique orthogonal hypervectors".
    ItemMemory items(27, 10000, 3);
    for (std::size_t i = 0; i < items.size(); ++i) {
        for (std::size_t j = i + 1; j < items.size(); ++j) {
            EXPECT_NEAR(items[i].hamming(items[j]), 5000.0, 350.0)
                << "pair " << i << "," << j;
        }
    }
}

TEST(TextAlphabetTest, LetterMapping)
{
    EXPECT_EQ(TextAlphabet::symbolOf('a'), 0u);
    EXPECT_EQ(TextAlphabet::symbolOf('z'), 25u);
    EXPECT_EQ(TextAlphabet::symbolOf('A'), 0u);
    EXPECT_EQ(TextAlphabet::symbolOf('Q'), 16u);
}

TEST(TextAlphabetTest, NonLettersCollapseToSpace)
{
    for (char c : {' ', '.', ',', '7', '!', '\n', '\t'})
        EXPECT_EQ(TextAlphabet::symbolOf(c), TextAlphabet::spaceId);
}

TEST(TextAlphabetTest, EveryByteMapsAsTheCLocale)
{
    // The C locale's rule, whatever locale the host process sets:
    // ASCII letters fold to 0..25 and every other byte, 0x80..0xff
    // included, is space.
    for (unsigned byte = 0; byte < 256; ++byte) {
        std::size_t expected = TextAlphabet::spaceId;
        if (byte >= 'a' && byte <= 'z')
            expected = byte - 'a';
        else if (byte >= 'A' && byte <= 'Z')
            expected = byte - 'A';
        EXPECT_EQ(TextAlphabet::symbolOf(static_cast<char>(byte)),
                  expected)
            << "byte " << byte;
    }
}

TEST(TextAlphabetTest, CharOfInverts)
{
    for (std::size_t id = 0; id < TextAlphabet::size; ++id)
        EXPECT_EQ(TextAlphabet::symbolOf(TextAlphabet::charOf(id)),
                  id);
}

TEST(TextAlphabetTest, NormalizeLowersAndCollapses)
{
    EXPECT_EQ(TextAlphabet::normalize("Hello, World! 42"),
              "hello  world    ");
}

TEST(TextAlphabetTest, NormalizeIsIdempotent)
{
    const std::string once = TextAlphabet::normalize("MiXeD. 123 text");
    EXPECT_EQ(TextAlphabet::normalize(once), once);
}

} // namespace
