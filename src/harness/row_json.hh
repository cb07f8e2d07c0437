/**
 * @file
 * The bench-artifact row schema, in one place. fig9_sweep,
 * qos_contention and the pvsim scenario runner all emit rows
 * through these helpers, so a scenario run of an experiment is
 * byte-identical to the compiled driver's row for the same config —
 * and the check_bench.py gate consumes one schema, not three
 * hand-rolled copies.
 */

#ifndef PVSIM_HARNESS_ROW_JSON_HH
#define PVSIM_HARNESS_ROW_JSON_HH

#include <string>

#include "harness/metrics.hh"

namespace pvsim {

/** IPC + host-cost body of one TimedRun (no braces): the
 *  "reference"/"protected" objects of BENCH_qos.json. */
std::string timedRunJson(const TimedRun &r);

/** One BENCH_fig9.json "rows" element (with braces). */
std::string fig9RowJson(const Fig9Row &r, unsigned jobs_effective);

/** One BENCH_qos.json "rows" element (with braces). */
std::string qosRowJson(const QosRow &r, unsigned jobs_effective);

/** One BENCH_qos.json heterogeneous "clusters" element. */
std::string qosClusterRowJson(const QosClusterRow &c);

} // namespace pvsim

#endif // PVSIM_HARNESS_ROW_JSON_HH
