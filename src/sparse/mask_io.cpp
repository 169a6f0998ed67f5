#include "mask_io.h"

#include <fstream>
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

} // namespace vitcod::sparse
