#include "harness/row_json.hh"

#include <sstream>

namespace pvsim {

std::string
timedRunJson(const TimedRun &r)
{
    std::ostringstream os;
    os << "\"ipc\": " << r.ipc
       << ", \"wall_seconds\": " << r.wallSeconds
       << ", \"events\": " << r.eventsExecuted
       << ", \"events_per_sec\": " << r.eventsPerSec();
    return os.str();
}

std::string
fig9RowJson(const Fig9Row &r, unsigned jobs_effective)
{
    std::ostringstream os;
    os << "{\"mix\": \"" << r.mix
       << "\", \"edge_stability\": " << r.edgeStability
       << ", \"dedicated_ipc\": " << r.dedicatedIpc
       << ", \"virtualized_ipc\": " << r.virtualizedIpc
       << ", \"dedicated_hit_pct\": " << r.dedicatedHitPct
       << ", \"virtualized_hit_pct\": " << r.virtualizedHitPct
       << ", \"virtualized_avail_redirect_pct\": "
       << r.virtualizedAvailRedirectPct
       << ", \"speedup_pct\": " << r.speedupPct
       << ", \"ci_pct\": " << r.ciPct
       << ", \"victim_entries\": " << r.victimEntries
       << ", \"victim_hits\": " << r.victimHits
       << ", \"wall_seconds\": " << r.wallSeconds
       << ", \"events\": " << r.eventsExecuted
       << ", \"events_per_sec\": " << r.eventsPerSec()
       << ", \"jobs_effective\": " << jobs_effective << "}";
    return os.str();
}

std::string
qosRowJson(const QosRow &r, unsigned jobs_effective)
{
    std::ostringstream os;
    os << "{\"setting\": \"" << r.label
       << "\", \"btb_weight\": " << r.btbWeight
       << ", \"aggressor_weight\": " << r.aggressorWeight
       << ", \"ipc\": " << r.ipc
       << ", \"avail_redirect_pct\": " << r.availRedirectPct
       << ", \"btb_hit_pct\": " << r.btbHitPct
       << ", \"btb_drop_pct\": " << r.btbDropPct
       << ", \"aggressor_drop_pct\": " << r.aggressorDropPct
       << ", \"btb_fill_latency\": " << r.btbFillLatency
       << ", \"ipc_delta_pct\": " << r.ipcDeltaPct
       << ", \"avail_improvement_pct\": " << r.availImprovementPct
       << ", \"wall_seconds\": " << r.wallSeconds
       << ", \"events\": " << r.eventsExecuted
       << ", \"events_per_sec\": " << r.eventsPerSec()
       << ", \"jobs_effective\": " << jobs_effective << "}";
    return os.str();
}

std::string
qosClusterRowJson(const QosClusterRow &c)
{
    std::ostringstream os;
    os << "{\"cluster\": \"" << c.cluster
       << "\", \"mix\": \"" << c.mix
       << "\", \"contract\": \"" << c.contract
       << "\", \"btb_weight\": " << c.btbWeight
       << ", \"aggressor_weight\": " << c.aggressorWeight
       << ", \"cores\": " << c.cores
       << ", \"avail_redirect_pct\": " << c.availRedirectPct
       << ", \"ref_avail_redirect_pct\": " << c.refAvailRedirectPct
       << ", \"avail_improvement_pct\": " << c.availImprovementPct
       << ", \"btb_hit_pct\": " << c.btbHitPct
       << ", \"btb_drop_pct\": " << c.btbDropPct
       << ", \"ref_btb_drop_pct\": " << c.refBtbDropPct
       << ", \"aggressor_drop_pct\": " << c.aggressorDropPct << "}";
    return os.str();
}

} // namespace pvsim
