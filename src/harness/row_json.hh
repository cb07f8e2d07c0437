/**
 * @file
 * The bench-artifact row schema, in one place. The pvsim scenario
 * runner emits every BENCH_*.json row through these helpers, so the
 * check_bench.py gate consumes one schema, not hand-rolled copies.
 */

#ifndef PVSIM_HARNESS_ROW_JSON_HH
#define PVSIM_HARNESS_ROW_JSON_HH

#include <string>

#include "harness/metrics.hh"

namespace pvsim {

/** IPC + host-cost body of one TimedRun (no braces): a timed
 *  scenario's row and the qos_hetero "reference"/"protected"
 *  objects. */
std::string timedRunJson(const TimedRun &r);

/** One fig9 scenario "rows" element (with braces). */
std::string fig9RowJson(const Fig9Row &r, unsigned jobs_effective);

/** One qos scenario "rows" element (with braces). */
std::string qosRowJson(const QosRow &r, unsigned jobs_effective);

/** One qos_hetero scenario "rows" element (a cluster group). */
std::string qosClusterRowJson(const QosClusterRow &c);

} // namespace pvsim

#endif // PVSIM_HARNESS_ROW_JSON_HH
