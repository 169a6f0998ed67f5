/**
 * @file
 * Portable-bitmap (PBM, both ASCII P1 and binary P4) export of
 * binary masks, so the Fig. 2/8 attention-map structures can be
 * dumped as real images and inspected with any viewer. Export only:
 * the masks are fixed once built ("the sparse attention masks will
 * remain fixed during both finetuning and inference", paper
 * Sec. IV-B), so nothing in the program reads one back, and the
 * golden test compares the written bytes.
 */

#ifndef VITCOD_SPARSE_MASK_IO_H
#define VITCOD_SPARSE_MASK_IO_H

#include <iosfwd>
#include <string>

#include "sparse/bitmask.h"

namespace vitcod::sparse {

/** PBM flavor. */
enum class PbmFormat
{
    Ascii,  //!< P1: human-readable
    Binary, //!< P4: bit-packed rows
};

/** Serialize @p mask to a PBM stream ('1' = nonzero = black). */
void writePbm(std::ostream &os, const BitMask &mask,
              PbmFormat format = PbmFormat::Binary);

/** Serialize to a file; fatal() on I/O failure. */
void writePbmFile(const std::string &path, const BitMask &mask,
                  PbmFormat format = PbmFormat::Binary);

} // namespace vitcod::sparse

#endif // VITCOD_SPARSE_MASK_IO_H
