/**
 * @file
 * Per-tenant QoS contention experiment: a latency-critical
 * virtualized BTB shares each core's PVProxy with a
 * bandwidth-hungry virtualized AGT (every data reference is one
 * read-modify-write proxy operation), and the sweep walks the
 * tenants' QoS contracts from the legacy fair share ("equal", the
 * baseline) through increasing BTB weights to a hard-floor
 * reservation. Reported per setting: the BTB availability-redirect
 * rate (taken-branch lookups unanswered at fetch because the
 * prediction was still waiting on its PV fill — the latency the
 * paper's Section 4.3 sharing bet puts at risk), BTB hit rate,
 * per-tenant proxy drop rates, mean BTB fill latency, and the
 * matched-seed IPC delta against the equal-weight baseline.
 *
 * A second section runs the heterogeneous per-cluster tenant
 * matrix (qosHeterogeneous): a many-core machine whose four
 * cluster groups each run a different workload mix under a
 * different QoS contract, reported per cluster against the
 * matched-seed all-equal reference — the "unrelated tenants share
 * one machine" picture the per-tenant contracts exist for.
 *
 * Emits a BENCH_qos.json summary (stdout table + file) so
 * successive PRs can compare trajectories.
 *
 *   qos_contention [--penalty N] [--btb-sets N] [--agt-sets N]
 *                  [--pvcache N] [--victim-entries N]
 *                  [--batches N] [--cores N]
 *                  [--warmup-records N] [--measure-records N]
 *                  [--hetero-cores N] [--hetero-batches N]
 *                  [--hetero-warmup N] [--hetero-measure N]
 *                  [--skip-hetero]
 *                  [--json-out FILE] [--csv] [--smoke]
 */

#include <fstream>
#include <iostream>
#include <sstream>

#include "bench_common.hh"
#include "config/scenario.hh"
#include "harness/metrics.hh"
#include "harness/row_json.hh"
#include "harness/table.hh"
#include "util/args.hh"

using namespace pvsim;
using namespace pvsim::bench;

int
main(int argc, char **argv)
{
    Args args(argc, argv);
    const bool smoke = args.getBool("smoke", false);
    const bool csv = args.getBool("csv", false);

    // --scenario FILE: take every sweep option from a scenario file
    // (kind "qos") instead of the flags below; the heterogeneous
    // matrix defaults to skipped since the scenario describes only
    // the contract sweep.
    const std::string scenario_file = args.getString("scenario", "");

    QosOptions opt;
    if (!scenario_file.empty()) {
        Scenario s;
        try {
            s = loadScenarioFile(scenario_file);
        } catch (const std::exception &e) {
            std::cerr << "qos_contention: " << e.what() << "\n";
            return 2;
        }
        if (s.kind != "qos") {
            std::cerr << "qos_contention: " << scenario_file
                      << " has kind \"" << s.kind
                      << "\", want \"qos\"\n";
            return 2;
        }
        opt = s.qos;
    } else {
        opt.penalty = args.getUint("penalty", 8);
        opt.btbSets =
            unsigned(args.getUint("btb-sets", opt.btbSets));
        opt.agtSets =
            unsigned(args.getUint("agt-sets", opt.agtSets));
        opt.pvCacheEntries =
            unsigned(args.getUint("pvcache", opt.pvCacheEntries));
        opt.victimEntries = unsigned(
            args.getUint("victim-entries", opt.victimEntries));
        opt.numCores = int(args.getUint("cores", opt.numCores));
        opt.batches = unsigned(std::max<uint64_t>(
            1, args.getUint("batches", smoke ? 2 : 3)));
        opt.warmupRecords =
            args.getUint("warmup-records", smoke ? 1'000 : 20'000);
        opt.measureRecords =
            args.getUint("measure-records", smoke ? 3'000 : 60'000);
    }
    const bool skip_hetero =
        args.getBool("skip-hetero", !scenario_file.empty());
    const unsigned hetero_cores =
        unsigned(args.getUint("hetero-cores", 64));
    const std::string json_out =
        args.getString("json-out", "BENCH_qos.json");

    // The heterogeneous matrix runs many-core, with its own
    // (smaller) record budget.
    QosOptions hopt = opt;
    hopt.numCores = int(hetero_cores);
    hopt.batches = unsigned(std::max<uint64_t>(
        1, args.getUint("hetero-batches", smoke ? 1 : 2)));
    hopt.warmupRecords =
        args.getUint("hetero-warmup", smoke ? 500 : 8'000);
    hopt.measureRecords =
        args.getUint("hetero-measure", smoke ? 1'500 : 24'000);
    args.rejectUnknown();

    // qosSweep runs every (setting, batch) System as one job
    // (bookkeeping shared with the scenario runner).
    const unsigned jobs_requested = harnessJobs();
    const unsigned jobs_effective = qosJobsEffective(opt);

    std::cout << "QoS contention: virtualized BTB (latency-critical)"
              << " vs AGT aggressor on one shared proxy per core, "
              << "penalty=" << opt.penalty << " cycles, PVCache="
              << opt.pvCacheEntries << ", " << opt.batches
              << " batches, jobs=" << jobs_effective << "\n\n";

    std::vector<QosRow> rows = qosSweep(opt);

    TextTable t;
    t.setColumns({"setting", "IPC", "avail-redir", "BTB hit",
                  "BTB drop", "AGT drop", "fill lat", "IPC delta",
                  "protection", "wall", "ev/s"});
    for (const QosRow &r : rows) {
        t.addRow({r.label, fmtDouble(r.ipc, 4),
                  fmtDouble(r.availRedirectPct, 1) + "%",
                  fmtDouble(r.btbHitPct, 1) + "%",
                  fmtDouble(r.btbDropPct, 1) + "%",
                  fmtDouble(r.aggressorDropPct, 1) + "%",
                  fmtDouble(r.btbFillLatency, 1),
                  fmtDouble(r.ipcDeltaPct, 2) + "%",
                  fmtDouble(r.availImprovementPct, 1) + "%",
                  fmtWall(r.wallSeconds),
                  fmtEventsPerSec(r.eventsPerSec())});
    }
    if (csv)
        t.printCsv(std::cout);
    else
        t.print(std::cout);

    // ---- Heterogeneous per-cluster tenant matrix ------------------
    QosHeterogeneousResult het;
    if (!skip_hetero) {
        std::cout << "\nHeterogeneous tenant matrix: "
                  << hetero_cores << " cores in 4 cluster groups, "
                  << hopt.batches << " batch(es)\n";
        het = qosHeterogeneous(hopt);
        TextTable ht;
        ht.setColumns({"cluster", "cores", "avail-redir",
                       "ref-redir", "protection", "BTB hit",
                       "BTB drop", "AGT drop"});
        for (const QosClusterRow &c : het.clusters) {
            ht.addRow({c.cluster, std::to_string(c.cores),
                       fmtDouble(c.availRedirectPct, 1) + "%",
                       fmtDouble(c.refAvailRedirectPct, 1) + "%",
                       fmtDouble(c.availImprovementPct, 1) + "%",
                       fmtDouble(c.btbHitPct, 1) + "%",
                       fmtDouble(c.btbDropPct, 1) + "%",
                       fmtDouble(c.aggressorDropPct, 1) + "%"});
        }
        if (csv)
            ht.printCsv(std::cout);
        else
            ht.print(std::cout);
        printHostCost("  reference", het.referenceRun.wallSeconds,
                      het.referenceRun.eventsExecuted);
        printHostCost("  protected", het.protectedRun.wallSeconds,
                      het.protectedRun.eventsExecuted);
    }

    std::ostringstream js;
    js << "{\n  \"bench\": \"qos_contention\",\n"
       << "  \"penalty_cycles\": " << opt.penalty << ",\n"
       << "  \"btb_sets\": " << opt.btbSets << ",\n"
       << "  \"agt_sets\": " << opt.agtSets << ",\n"
       << "  \"pvcache_entries\": " << opt.pvCacheEntries << ",\n"
       << "  \"cores\": " << opt.numCores << ",\n"
       << "  \"batches\": " << opt.batches << ",\n"
       << "  \"warmup_records\": " << opt.warmupRecords << ",\n"
       << "  \"measure_records\": " << opt.measureRecords << ",\n"
       << "  \"jobs_requested\": " << jobs_requested << ",\n"
       << "  \"jobs_effective\": " << jobs_effective << ",\n"
       << "  \"rows\": [\n";
    for (size_t i = 0; i < rows.size(); ++i)
        js << "    " << qosRowJson(rows[i], jobs_effective)
           << (i + 1 < rows.size() ? "," : "") << "\n";
    js << "  ]";
    if (!skip_hetero) {
        js << ",\n  \"heterogeneous\": {\n"
           << "    \"cores\": " << hetero_cores << ",\n"
           << "    \"batches\": " << hopt.batches << ",\n"
           << "    \"warmup_records\": " << hopt.warmupRecords
           << ",\n"
           << "    \"measure_records\": " << hopt.measureRecords
           << ",\n"
           << "    \"reference\": {"
           << timedRunJson(het.referenceRun) << "},\n"
           << "    \"protected\": {"
           << timedRunJson(het.protectedRun) << "},\n"
           << "    \"clusters\": [\n";
        for (size_t i = 0; i < het.clusters.size(); ++i)
            js << "      " << qosClusterRowJson(het.clusters[i])
               << (i + 1 < het.clusters.size() ? "," : "") << "\n";
        js << "    ]\n  }";
    }
    js << "\n}\n";

    std::cout << "\n" << js.str();
    std::ofstream out(json_out);
    out << js.str();

    std::cout << "Reading: 'avail-redir' is the fraction of taken "
                 "branches whose BTB prediction was not available "
                 "at fetch (the PVCache line was still in flight); "
                 "each costs a full redirect. 'protection' is the "
                 "relative reduction of that rate vs the "
                 "equal-weight baseline — positive means the QoS "
                 "contract shields the BTB from the aggressor. The "
                 "aggressor pays with drops (predictor misses), "
                 "never with a stall.\n";

    // Sanity for CI: every setting must produce a real IPC, the
    // baseline must actually suffer contention (nonzero redirect
    // rate — otherwise there is nothing to protect), and outside
    // smoke runs at least one non-baseline setting must show real
    // protection. ~10%+ relative is the regression bar; the
    // recorded full runs sit well above it.
    if (rows.empty() || rows[0].availRedirectPct <= 0.0) {
        std::cerr << "FAIL: baseline shows no availability "
                     "redirects — no contention to measure\n";
        return 1;
    }
    double best = 0.0;
    for (const QosRow &r : rows) {
        if (r.ipc <= 0.0) {
            std::cerr << "FAIL: setting " << r.label
                      << " produced a zero IPC\n";
            return 1;
        }
        best = std::max(best, r.availImprovementPct);
    }
    if (!smoke && best < 10.0) {
        std::cerr << "FAIL: no setting protects the BTB by >= 10% "
                     "relative (best " << best << "%)\n";
        return 1;
    }
    // Heterogeneous matrix: both runs must produce real IPCs, and
    // every cluster must have seen real BTB traffic; outside smoke,
    // at least one protected cluster must show positive protection
    // over its all-equal reference.
    if (!skip_hetero) {
        if (het.protectedRun.ipc <= 0.0 ||
            het.referenceRun.ipc <= 0.0) {
            std::cerr << "FAIL: heterogeneous matrix produced a "
                         "zero IPC\n";
            return 1;
        }
        double het_best = 0.0;
        for (const QosClusterRow &c : het.clusters) {
            if (c.btbHitPct <= 0.0) {
                std::cerr << "FAIL: cluster " << c.cluster
                          << " scored no BTB traffic\n";
                return 1;
            }
            if (c.btbWeight > c.aggressorWeight ||
                c.contract == "equal+floor") {
                het_best =
                    std::max(het_best, c.availImprovementPct);
            }
        }
        if (!smoke && het_best <= 0.0) {
            std::cerr << "FAIL: no protected cluster improves BTB "
                         "availability over the all-equal "
                         "reference (best "
                      << het_best << "%)\n";
            return 1;
        }
    }
    return 0;
}
