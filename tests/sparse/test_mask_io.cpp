/**
 * @file
 * Tests of PBM mask import/export: format round-trips, header
 * parsing (comments, whitespace), byte-boundary shapes and file
 * paths.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "sparse/mask_io.h"
#include "support/temp_path.h"

namespace vitcod::sparse {
namespace {

BitMask
randomMask(size_t rows, size_t cols, double density, uint64_t seed)
{
    Rng rng(seed);
    BitMask m(rows, cols);
    for (size_t r = 0; r < rows; ++r)
        for (size_t c = 0; c < cols; ++c)
            if (rng.uniform() < density)
                m.set(r, c, true);
    return m;
}

TEST(MaskIo, AsciiRoundTrip)
{
    const BitMask m = randomMask(13, 21, 0.3, 1);
    std::stringstream ss;
    writePbm(ss, m, PbmFormat::Ascii);
    EXPECT_EQ(readPbm(ss), m);
}

TEST(MaskIo, BinaryRoundTrip)
{
    const BitMask m = randomMask(197, 197, 0.1, 2);
    std::stringstream ss;
    writePbm(ss, m, PbmFormat::Binary);
    EXPECT_EQ(readPbm(ss), m);
}

TEST(MaskIo, BinaryRoundTripNonByteAlignedWidths)
{
    for (size_t cols : {1u, 7u, 8u, 9u, 63u, 65u}) {
        const BitMask m = randomMask(5, cols, 0.5, 100 + cols);
        std::stringstream ss;
        writePbm(ss, m, PbmFormat::Binary);
        EXPECT_EQ(readPbm(ss), m) << "cols=" << cols;
    }
}

TEST(MaskIo, AsciiOutputIsValidP1Text)
{
    BitMask m(2, 3);
    m.set(0, 1, true);
    m.set(1, 2, true);
    std::stringstream ss;
    writePbm(ss, m, PbmFormat::Ascii);
    const std::string out = ss.str();
    EXPECT_EQ(out.rfind("P1", 0), 0u);
    EXPECT_NE(out.find("3 2"), std::string::npos);
    EXPECT_NE(out.find("0 1 0"), std::string::npos);
}

TEST(MaskIo, ParserSkipsCommentsAndWhitespace)
{
    std::stringstream ss(
        "P1\n# a comment\n  # another\n 3\n# mid\n2\n1 0 1\n0 1 0\n");
    const BitMask m = readPbm(ss);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_TRUE(m.get(0, 0));
    EXPECT_FALSE(m.get(0, 1));
    EXPECT_TRUE(m.get(1, 1));
}

TEST(MaskIo, FileRoundTrip)
{
    const BitMask m = randomMask(31, 47, 0.2, 3);
    const std::string path = test::uniqueTempPath("mask.pbm");
    writePbmFile(path, m);
    EXPECT_EQ(readPbmFile(path), m);
    std::remove(path.c_str());
}

TEST(MaskIoDeath, BadMagicPanics)
{
    std::stringstream ss("P5\n2 2\n");
    EXPECT_DEATH(readPbm(ss), "not a PBM");
}

TEST(MaskIoDeath, TruncatedBinaryPanics)
{
    std::stringstream ss;
    ss << "P4\n16 4\n" << 'x'; // far too few payload bytes
    EXPECT_DEATH(readPbm(ss), "truncated");
}

TEST(MaskIoDeath, NonNumericDimensionPanics)
{
    std::stringstream ss("P4\nabc 3\n");
    EXPECT_DEATH(readPbm(ss), "PBM header");
}

TEST(MaskIoDeath, NegativeDimensionPanics)
{
    std::stringstream ss("P1\n-1 2\n");
    EXPECT_DEATH(readPbm(ss), "PBM header");
}

TEST(MaskIoDeath, OverflowingDimensionsPanic)
{
    // 2^63 x 2 wraps rows * cols to 0 in size_t arithmetic.
    std::stringstream ss;
    ss << "P4\n9223372036854775808 2\n" << std::string(64, 'x');
    EXPECT_DEATH(readPbm(ss), "PBM header");
}

} // namespace
} // namespace vitcod::sparse
