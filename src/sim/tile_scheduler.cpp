#include "tile_scheduler.h"

#include <algorithm>

namespace vitcod::sim {

Cycles
doubleBufferedCycles(const std::vector<TileCost> &tiles)
{
    if (tiles.empty())
        return 0;
    const size_t n = tiles.size();
    // Recurrence with two load buffers and two store buffers:
    //   loadStart(i)    = max(loadEnd(i-1), computeEnd(i-2))
    //   computeStart(i) = max(computeEnd(i-1), loadEnd(i),
    //                         storeEnd(i-2))
    //   storeStart(i)   = max(storeEnd(i-1), computeEnd(i))
    std::vector<Tick> load_end(n), compute_end(n), store_end(n);
    for (size_t i = 0; i < n; ++i) {
        Tick load_start = i ? load_end[i - 1] : 0;
        if (i >= 2)
            load_start = std::max(load_start, compute_end[i - 2]);
        load_end[i] = load_start + tiles[i].load;

        Tick compute_start =
            std::max(i ? compute_end[i - 1] : 0, load_end[i]);
        if (i >= 2)
            compute_start = std::max(compute_start, store_end[i - 2]);
        compute_end[i] = compute_start + tiles[i].compute;

        const Tick store_start =
            std::max(i ? store_end[i - 1] : 0, compute_end[i]);
        store_end[i] = store_start + tiles[i].store;
    }
    return store_end[n - 1];
}

} // namespace vitcod::sim
