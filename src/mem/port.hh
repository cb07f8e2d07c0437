/**
 * @file
 * Interfaces between memory-system components.
 *
 * A MemDevice accepts requests (a cache seen from above, or DRAM).
 * A MemClient receives responses and coherence actions (a cache seen
 * from below, a core, or a PVProxy). A Cache implements both.
 */

#ifndef PVSIM_MEM_PORT_HH
#define PVSIM_MEM_PORT_HH

#include <string>

#include "mem/packet.hh"
#include "sim/types.hh"

namespace pvsim {

/** Upstream endpoint: receives responses and coherence messages. */
class MemClient
{
  public:
    virtual ~MemClient() = default;

    /** A response for a request this client sent (timing mode). */
    virtual void recvResponse(PacketPtr pkt) = 0;

    /**
     * Coherence: drop the block (back-invalidation from an inclusive
     * lower level, or a remote store). Default: nothing cached above.
     */
    virtual void recvInvalidate(Addr /*block_addr*/) {}

    /**
     * Coherence: lose write permission but keep the (clean) block.
     * Any locally dirty data is considered merged into the lower
     * level by the caller.
     */
    virtual void recvDowngrade(Addr /*block_addr*/) {}

    /** Name for debugging. */
    virtual std::string clientName() const = 0;
};

/** Downstream endpoint: accepts requests. */
class MemDevice
{
  public:
    virtual ~MemDevice() = default;

    /**
     * Timing mode: try to accept a request. Returns false if the
     * device is structurally blocked (MSHRs/write buffer full); the
     * caller keeps ownership and must retry later. On true, the
     * device owns the packet until it responds or consumes it.
     */
    virtual bool recvRequest(PacketPtr pkt) = 0;

    /**
     * Functional mode: perform the access fully and synchronously.
     * The packet is completed (turned into a response) in place; the
     * caller keeps ownership. All state transitions (fills,
     * evictions, writebacks, invalidations) happen as in timing
     * mode, with zero latency.
     */
    virtual void functionalAccess(Packet &pkt) = 0;

    virtual std::string deviceName() const = 0;
};

} // namespace pvsim

#endif // PVSIM_MEM_PORT_HH
