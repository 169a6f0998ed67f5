/**
 * @file
 * Tests of PBM mask export: the exact bytes of both flavors (header,
 * bit order, zero padding of partial P4 bytes) at widths around the
 * byte boundaries, and the file writer.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "sparse/mask_io.h"
#include "support/temp_path.h"

namespace vitcod::sparse {
namespace {

/** One width with its expected P4 rows as hex. */
struct WidthCase
{
    size_t cols;
    const char *rows[4]; //!< all ones, last column, first, even columns
};

/**
 * Rows: every column set; only the last column; only the first;
 * every even column. The last two pin MSB-first bit order, the
 * first two the zero padding of a partial final byte.
 */
constexpr WidthCase kWidths[] = {
    {1, {"80", "80", "80", "80"}},
    {7, {"fe", "02", "80", "aa"}},
    {8, {"ff", "01", "80", "aa"}},
    {9, {"ff80", "0080", "8000", "aa80"}},
    {63,
     {"fffffffffffffffe", "0000000000000002", "8000000000000000",
      "aaaaaaaaaaaaaaaa"}},
    {65,
     {"ffffffffffffffff80", "000000000000000080", "800000000000000000",
      "aaaaaaaaaaaaaaaa80"}},
};

BitMask
patternMask(size_t cols)
{
    BitMask m(4, cols);
    for (size_t c = 0; c < cols; ++c) {
        m.set(0, c, true);
        m.set(3, c, c % 2 == 0);
    }
    m.set(1, cols - 1, true);
    m.set(2, 0, true);
    return m;
}

std::string
fromHex(const std::string &hex)
{
    std::string out;
    for (size_t i = 0; i < hex.size(); i += 2)
        out.push_back(
            static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
    return out;
}

/** The P1 text of a hex P4 row: its first @p cols bits, MSB first. */
std::string
p1Row(const std::string &hex, size_t cols)
{
    const std::string bytes = fromHex(hex);
    std::string row;
    for (size_t c = 0; c < cols; ++c) {
        const auto byte = static_cast<unsigned char>(bytes[c / 8]);
        row += (byte >> (7 - c % 8)) & 1u ? '1' : '0';
        row += c + 1 == cols ? '\n' : ' ';
    }
    return row;
}

std::string
written(const BitMask &m, PbmFormat format)
{
    std::ostringstream os;
    writePbm(os, m, format);
    return os.str();
}

TEST(MaskIo, BinaryBytesAtEveryPadding)
{
    for (const WidthCase &w : kWidths) {
        std::string want = "P4\n" + std::to_string(w.cols) + " 4\n";
        for (const char *row : w.rows)
            want += fromHex(row);
        EXPECT_EQ(written(patternMask(w.cols), PbmFormat::Binary), want)
            << "cols=" << w.cols;
    }
}

TEST(MaskIo, AsciiBytesAtEveryWidth)
{
    EXPECT_EQ(written(patternMask(3), PbmFormat::Ascii),
              "P1\n# vitcod attention mask\n3 4\n"
              "1 1 1\n0 0 1\n1 0 0\n1 0 1\n");
    for (const WidthCase &w : kWidths) {
        std::string want = "P1\n# vitcod attention mask\n" +
                           std::to_string(w.cols) + " 4\n";
        for (const char *row : w.rows)
            want += p1Row(row, w.cols);
        EXPECT_EQ(written(patternMask(w.cols), PbmFormat::Ascii), want)
            << "cols=" << w.cols;
    }
}

TEST(MaskIo, AsciiOutputIsValidP1Text)
{
    BitMask m(2, 3);
    m.set(0, 1, true);
    m.set(1, 2, true);
    const std::string out = written(m, PbmFormat::Ascii);
    EXPECT_EQ(out.rfind("P1", 0), 0u);
    EXPECT_NE(out.find("3 2"), std::string::npos);
    EXPECT_NE(out.find("0 1 0"), std::string::npos);
}

TEST(MaskIo, FileHoldsTheStreamBytes)
{
    const BitMask m = patternMask(65);
    const std::string path = test::uniqueTempPath("mask.pbm");
    writePbmFile(path, m);
    std::ifstream in(path, std::ios::binary);
    const std::string bytes{std::istreambuf_iterator<char>(in), {}};
    EXPECT_EQ(bytes, written(m, PbmFormat::Binary));
    std::remove(path.c_str());
}

} // namespace
} // namespace vitcod::sparse
