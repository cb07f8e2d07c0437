/**
 * @file
 * Cache block (line) state. One CacheBlk per way per set; payload
 * storage is lazily allocated because only PV data carries real
 * bytes through the hierarchy.
 *
 * A frame holds only the line state. Its address and validity live
 * in the cache's tag array, its recency in the LRU array, and an
 * inclusive L2's directory entry in directory rows the cache sizes
 * to its attached clients — so the frames of an 8 MB L2 stay small
 * enough to build and tear down cheaply.
 */

#ifndef PVSIM_MEM_CACHE_BLK_HH
#define PVSIM_MEM_CACHE_BLK_HH

#include <array>
#include <cstdint>
#include <memory>

#include "sim/types.hh"

namespace pvsim {

/** State of one cache line. */
struct CacheBlk {
    /** Optional payload (PV blocks only in practice). */
    std::unique_ptr<std::array<uint8_t, kBlockBytes>> data;

    /** Locally modified relative to the level below. */
    bool dirty = false;
    /** Held in M/E: stores may hit without an upgrade. */
    bool writable = false;

    /** Filled by a prefetch and not yet touched by demand. */
    bool wasPrefetched = false;
    /** Instruction-side block (for stats only). */
    bool isInst = false;
    /** PV-range block (stats classification only). */
    bool isPv = false;

    bool hasData() const { return data != nullptr; }

    std::array<uint8_t, kBlockBytes> &
    ensureData()
    {
        if (!data) {
            data = std::make_unique<std::array<uint8_t, kBlockBytes>>();
            data->fill(0);
        }
        return *data;
    }

    /** Return to the invalid state, releasing any payload. */
    void
    invalidate()
    {
        dirty = false;
        writable = false;
        wasPrefetched = false;
        isInst = false;
        isPv = false;
        data.reset();
    }
};

static_assert(sizeof(CacheBlk) <= 16,
              "a cache frame must stay within 16 bytes");

} // namespace pvsim

#endif // PVSIM_MEM_CACHE_BLK_HH
