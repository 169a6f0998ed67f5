#include "mask_io.h"

#include <charconv>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>

#include "common/logging.h"

namespace vitcod::sparse {

void
writePbm(std::ostream &os, const BitMask &mask, PbmFormat format)
{
    if (format == PbmFormat::Ascii) {
        os << "P1\n# vitcod attention mask\n"
           << mask.cols() << ' ' << mask.rows() << '\n';
        for (size_t r = 0; r < mask.rows(); ++r) {
            for (size_t c = 0; c < mask.cols(); ++c) {
                os << (mask.get(r, c) ? '1' : '0');
                os << (c + 1 == mask.cols() ? '\n' : ' ');
            }
        }
        return;
    }
    os << "P4\n" << mask.cols() << ' ' << mask.rows() << '\n';
    const size_t row_bytes = (mask.cols() + 7) / 8;
    for (size_t r = 0; r < mask.rows(); ++r) {
        for (size_t b = 0; b < row_bytes; ++b) {
            uint8_t byte = 0;
            for (size_t bit = 0; bit < 8; ++bit) {
                const size_t c = b * 8 + bit;
                if (c < mask.cols() && mask.get(r, c))
                    byte |= static_cast<uint8_t>(0x80u >> bit);
            }
            os.put(static_cast<char>(byte));
        }
    }
}

void
writePbmFile(const std::string &path, const BitMask &mask,
             PbmFormat format)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        fatal("cannot open for writing: ", path);
    writePbm(os, mask, format);
    if (!os)
        fatal("write failed: ", path);
}

namespace {

/** Read the next header token, skipping whitespace and comments. */
std::string
nextToken(std::istream &is)
{
    std::string tok;
    for (;;) {
        const int ch = is.peek();
        if (ch == EOF)
            break;
        if (std::isspace(ch)) {
            is.get();
            continue;
        }
        if (ch == '#') {
            std::string comment;
            std::getline(is, comment);
            continue;
        }
        break;
    }
    is >> tok;
    return tok;
}

/** Largest mask readPbm accepts: 8192 x 8192 cells (64 MiB). */
constexpr size_t kMaxPbmCells = size_t{1} << 26;

/** @p tok as a whole decimal number; 0 if it is anything else. */
size_t
parseDim(const std::string &tok)
{
    const char *end = tok.data() + tok.size();
    size_t v = 0;
    const auto [p, ec] = std::from_chars(tok.data(), end, v);
    return ec == std::errc() && p == end ? v : 0;
}

} // namespace

BitMask
readPbm(std::istream &is)
{
    const std::string magic = nextToken(is);
    VITCOD_ASSERT(magic == "P1" || magic == "P4",
                  "not a PBM stream: magic '", magic, "'");
    const std::string w_tok = nextToken(is);
    const std::string h_tok = nextToken(is);
    const size_t cols = parseDim(w_tok);
    const size_t rows = parseDim(h_tok);
    // rows <= cap / cols bounds the product without computing it.
    VITCOD_ASSERT(cols > 0 && rows > 0 && rows <= kMaxPbmCells / cols,
                  "bad PBM header: width '", w_tok, "' x height '",
                  h_tok, "' must be positive integers of at most ",
                  kMaxPbmCells, " cells");

    BitMask mask(rows, cols);
    if (magic == "P1") {
        for (size_t r = 0; r < rows; ++r) {
            for (size_t c = 0; c < cols; ++c) {
                const std::string bit = nextToken(is);
                VITCOD_ASSERT(bit == "0" || bit == "1",
                              "bad P1 pixel '", bit, "'");
                mask.set(r, c, bit == "1");
            }
        }
        return mask;
    }
    // P4: single whitespace after height, then packed rows.
    is.get();
    const size_t row_bytes = (cols + 7) / 8;
    for (size_t r = 0; r < rows; ++r) {
        for (size_t b = 0; b < row_bytes; ++b) {
            const int byte = is.get();
            VITCOD_ASSERT(byte != EOF, "truncated P4 payload");
            for (size_t bit = 0; bit < 8; ++bit) {
                const size_t c = b * 8 + bit;
                if (c < cols)
                    mask.set(r, c,
                             (static_cast<unsigned>(byte) >>
                              (7 - bit)) &
                                 1u);
            }
        }
    }
    return mask;
}

BitMask
readPbmFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        fatal("cannot open for reading: ", path);
    return readPbm(is);
}

} // namespace vitcod::sparse
