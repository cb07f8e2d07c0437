/**
 * @file
 * Layer-isolated replays: each simulator layer driven on its own with
 * the workload's own generated streams, so its host cost per
 * operation reflects that workload's working set.
 */

#ifndef PVBENCH_REPLAY_HH
#define PVBENCH_REPLAY_HH

#include <cstdint>
#include <vector>

#include "harness/system_config.hh"

namespace pvbench {

/** Median host nanoseconds per operation of each replayed layer. */
struct LayerReplay {
    double traceNsPerRecord = 0.0; ///< SyntheticWorkload::nextBatch
    double l1NsPerAccess = 0.0;    ///< functional Cache access
    double pvNsPerAccess = 0.0;    ///< PvProxy::access
    double codecNsPerDecode = 0.0; ///< PvSetCodec::decode
    double codecNsPerEncode = 0.0; ///< PvSetCodec::encode
};

/**
 * Replay the per-core streams of every config in cfgs through the
 * trace generator, a standalone L1D, and a standalone PvProxy plus
 * codecs with the config's engine registry. Each timing is repeated
 * `repeats` times and the median kept.
 */
LayerReplay replayLayers(const std::vector<pvsim::SystemConfig> &cfgs,
                         uint64_t records_per_core, unsigned repeats);

} // namespace pvbench

#endif // PVBENCH_REPLAY_HH
