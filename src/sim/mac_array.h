/**
 * @file
 * MAC-line array shape. The ViTCoD accelerator has 64 MAC lines of 8
 * MACs each (512 MACs total, paper Sec. VI-A); lines are the unit of
 * allocation between the denser and sparser engines, paper Fig. 12.
 */

#ifndef VITCOD_SIM_MAC_ARRAY_H
#define VITCOD_SIM_MAC_ARRAY_H

#include <cstddef>

namespace vitcod::sim {

/** Array shape. */
struct MacArrayConfig
{
    size_t macLines = 64;
    size_t macsPerLine = 8;

    size_t totalMacs() const { return macLines * macsPerLine; }
};

} // namespace vitcod::sim

#endif // VITCOD_SIM_MAC_ARRAY_H
