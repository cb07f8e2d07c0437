/**
 * @file
 * pvsim benchmark program. Runs one named workload (a scenario file
 * under workloads/) through the public harness API on the plain
 * serial event loop, repeatedly for a fixed host-time budget, checks
 * every run, and prints a report whose last line is one JSON result:
 *
 *   pvbench --workload NAME --seed N --seconds S --trace 0|1
 *           --workload-dir DIR [--span-file PATH]
 *           [--commit C] [--source-hash H]
 *
 * --trace 0 reports the end-to-end metrics (medians over the runs).
 * --trace 1 spends part of the budget on untraced runs and part on
 * runs that record spans around every call into a layer, then
 * replays each layer in isolation; it reports the per-layer metrics
 * and the tracing overhead. Exit status 2 means the benchmark could
 * not start (bad arguments or workload file) and no result is
 * printed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "config/reflect.hh"
#include "config/scenario.hh"
#include "harness/metrics.hh"
#include "harness/system.hh"
#include "replay.hh"
#include "timing.hh"
#include "util/random.hh"

namespace pvbench {
namespace {

using namespace pvsim;

// ---- Simulated counters -------------------------------------------------

/** Counters read from a System's stats after its measure phase. */
enum Count : unsigned {
    kRecords,
    kInsts,
    kTicks,
    kEvents,
    kL1dAccesses,
    kL1dMisses,
    kL2Requests,
    kL2RequestsPv,
    kL2Misses,
    kL2WritebacksPv,
    kDramBytes,
    kL2ValidAtMeasure, ///< traced runs only
    kL2Blocks,
    kPfIssued,
    kCovered,
    kUncovered,
    kOverpredictions,
    kPvOps,
    kPvHits,
    kPvMisses,
    kPvMemRequests,
    kPvFills,
    kPvFillTicks,
    kPvDropped,
    kPvVictimHits,
    kPvWritebacks,
    kBtbHits,
    kBtbMispredicts,
    kBtbUnavailable,
    kVirtBtbScored, ///< hits + mispredicts of virtualized BTBs
    kSmsCores,      ///< cores with an SMS prefetcher
    kNumCounts
};
using Counts = std::array<uint64_t, kNumCounts>;

Counts
countsOf(System &sys)
{
    Counts n{};
    for (int c = 0; c < sys.numCores(); ++c) {
        TraceCore &core = sys.core(c);
        n[kRecords] += core.recordsConsumed();
        n[kInsts] += core.instructionsRetired();
        n[kBtbHits] += core.btbHits.value();
        n[kBtbMispredicts] += core.btbMispredicts.value();
        n[kBtbUnavailable] += core.btbUnavailable.value();
        if (sys.virtBtb(c))
            n[kVirtBtbScored] +=
                core.btbHits.value() + core.btbMispredicts.value();
        Cache &l1d = sys.l1d(c);
        n[kL1dAccesses] += l1d.demandAccesses.value();
        n[kL1dMisses] += l1d.demandMisses.value();
        if (SmsPrefetcher *sms = sys.sms(c)) {
            n[kPfIssued] += sms->prefetchesIssued.value();
            ++n[kSmsCores];
        }
        if (PvProxy *pv = sys.pvProxy(c)) {
            n[kPvOps] += pv->operations.value();
            n[kPvHits] += pv->pvCacheHits.value();
            n[kPvMisses] += pv->pvCacheMisses.value();
            n[kPvMemRequests] += pv->memRequests.value();
            n[kPvDropped] += pv->droppedOps.value();
            n[kPvVictimHits] += pv->victimHits.value();
            n[kPvWritebacks] += pv->writebacks.value();
            for (unsigned t = 0; t < pv->numEngines(); ++t) {
                n[kPvFills] += pv->engineStats(t).fills.value();
                n[kPvFillTicks] +=
                    pv->engineStats(t).fillLatencyTicks.value();
            }
        }
    }
    CoverageMetrics cov = coverageOf(sys);
    n[kCovered] = cov.covered;
    n[kUncovered] = cov.uncovered;
    n[kOverpredictions] = cov.overpredictions;
    TrafficMetrics traffic = trafficOf(sys);
    n[kL2Requests] = traffic.l2Requests;
    n[kL2RequestsPv] = traffic.l2RequestsPv;
    n[kL2Misses] = traffic.l2Misses();
    n[kL2WritebacksPv] = traffic.l2WritebacksPv;
    n[kDramBytes] = traffic.offChipBytes();
    return n;
}

void
addCounts(Counts &sum, const Counts &n)
{
    for (unsigned i = 0; i < kNumCounts; ++i)
        sum[i] += n[i];
}

double
pct(uint64_t part, uint64_t whole)
{
    return whole ? 100.0 * double(part) / double(whole) : 0.0;
}

double
ratio(uint64_t num, uint64_t den)
{
    return den ? double(num) / double(den) : 0.0;
}

/** Simulated results: deterministic for a given seed. */
double simIpc(const Counts &n) { return ratio(n[kInsts], n[kTicks]); }

double
btbRedirectPct(const Counts &n)
{
    return pct(n[kBtbUnavailable], n[kVirtBtbScored]);
}

double
coveragePct(const Counts &n)
{
    return pct(n[kCovered], n[kCovered] + n[kUncovered]);
}

std::string
hex(uint64_t h)
{
    return "0x" + config::fingerprintHex(h);
}

// ---- One System, start to finish ---------------------------------------

/** Host seconds per phase and the outcome of one System's run. */
struct SystemRun {
    double parse = 0.0;
    double ctor = 0.0;
    double warmup = 0.0;
    double measure = 0.0;
    double wall = 0.0; ///< config to teardown, every phase
    int numCores = 0;
    double ipc = 0.0;
    uint64_t statsHash = 0;
    Counts counts{};
    std::string failure; ///< empty when every check passed

    double setup() const { return parse + ctor; }
};

/**
 * Build the config with make_config, construct the System, warm it
 * up, reset its stats, measure, read and check the stats, and tear
 * it down. With a tracer, records one span per phase under `parent`
 * and samples the L2 occupancy at the start of measurement.
 */
SystemRun
runSystem(const std::function<SystemConfig()> &make_config,
          uint64_t warmup, uint64_t measure, Tracer *tracer, int parent,
          unsigned run)
{
    SystemRun r;
    const Clock::time_point t_parse = Clock::now();
    const SystemConfig cfg = make_config();
    const Clock::time_point t_ctor = Clock::now();
    auto sys = std::make_unique<System>(cfg);
    const Clock::time_point t_warm = Clock::now();
    const bool timing = cfg.mode == SimMode::Timing;
    auto advance = [&](uint64_t n) -> Tick {
        if (timing)
            return sys->runTiming(n);
        sys->runFunctional(n);
        return 0;
    };
    if (warmup > 0)
        advance(warmup);
    const Clock::time_point t_occ = Clock::now();
    uint64_t l2_valid = 0;
    if (tracer)
        l2_valid = sys->l2().numValidBlocks();
    const Clock::time_point t_reset = Clock::now();
    const Tick start = sys->ctx().curTick();
    sys->resetStats();
    const Clock::time_point t_measure = Clock::now();
    const uint64_t events_before = sys->eventsExecuted();
    const Tick finish = advance(measure);
    const Clock::time_point t_harvest = Clock::now();

    r.numCores = cfg.numCores;
    r.counts = countsOf(*sys);
    r.counts[kEvents] = sys->eventsExecuted() - events_before;
    r.counts[kTicks] = timing ? finish - start : 0;
    r.counts[kL2ValidAtMeasure] = l2_valid;
    r.counts[kL2Blocks] = sys->l2().sizeBytes() / kBlockBytes;
    r.ipc = aggregateIpc(sys->totalInstructions(), finish - start);
    if (!sys->quiesced())
        r.failure = "system not quiesced after the measure phase";
    for (int c = 0; c < cfg.numCores && r.failure.empty(); ++c) {
        uint64_t got = sys->core(c).recordsConsumed();
        if (got != measure) {
            r.failure = "core " + std::to_string(c) + " retired " +
                        std::to_string(got) + " records, not " +
                        std::to_string(measure);
        }
    }
    if (r.failure.empty() && timing &&
        !(r.ipc > 0.0 && std::isfinite(r.ipc)))
        r.failure = "timing run reported no progress (IPC 0)";
    const Clock::time_point t_dump = Clock::now();
    std::ostringstream dump;
    sys->ctx().dumpStats(dump);
    r.statsHash = config::fnv1a(dump.str());
    const Clock::time_point t_teardown = Clock::now();
    sys.reset();
    const Clock::time_point t_end = Clock::now();

    r.parse = secondsBetween(t_parse, t_ctor);
    r.ctor = secondsBetween(t_ctor, t_warm);
    r.warmup = secondsBetween(t_warm, t_measure);
    r.measure = secondsBetween(t_measure, t_harvest);
    r.wall = secondsBetween(t_parse, t_end);
    if (tracer) {
        int setup = tracer->record("harness.setup", t_parse, t_warm,
                                   parent, run);
        tracer->record("config.parse", t_parse, t_ctor, setup, run);
        int warm = tracer->record("harness.warmup", t_warm, t_measure,
                                  parent, run);
        tracer->record("mem.l2_occupancy", t_occ, t_reset, warm, run);
        tracer->record("stats.reset", t_reset, t_measure, warm, run);
        tracer->record("harness.measure", t_measure, t_harvest, parent,
                       run);
        int harvest = tracer->record("harness.harvest", t_harvest,
                                     t_teardown, parent, run);
        tracer->record("stats.dump", t_dump, t_teardown, harvest, run);
        tracer->record("harness.teardown", t_teardown, t_end, parent,
                       run);
    }
    return r;
}

// ---- Workloads ------------------------------------------------------------

/** What a workload file describes and how much of it one run does. */
struct Plan {
    std::string name;
    std::string text; ///< the scenario file, parsed again every run
    Scenario scenario;
    bool sweep = false;
    uint64_t warmup = 0;  ///< per core, single-System workloads
    uint64_t measure = 0; ///< per core, single-System workloads
};

Scenario
parseWorkload(const Plan &plan)
{
    Scenario s = parseScenario(plan.text, plan.name + ".json");
    validateScenario(s);
    return s;
}

/** The single System of a functional or timed workload. */
SystemConfig
singleConfig(const Scenario &s, uint64_t seed)
{
    SystemConfig cfg = s.system;
    cfg.mode = s.kind == "timed" ? SimMode::Timing : SimMode::Functional;
    cfg.seedOffset = seed;
    return cfg;
}

/**
 * The sweep's options for one seed. fig9Sweep seeds each batch with
 * its batch index, so the benchmark seed instead decides where each
 * mix's presets sit on the cores: every mix is expanded to one preset
 * per core and shuffled.
 */
Fig9Options
sweepOptions(const Scenario &s, uint64_t seed)
{
    Fig9Options opt = s.fig9;
    if (opt.mixes.empty())
        opt.mixes = presetMixes();
    if (!opt.edgeStabilities.empty())
        throw std::runtime_error("the benchmark sweep runs each mix's "
                                 "own edge stability; leave "
                                 "edge_stabilities empty");
    Rng rng(seed);
    for (WorkloadMix &mix : opt.mixes) {
        std::vector<std::string> placed;
        for (int c = 0; c < opt.numCores; ++c)
            placed.push_back(
                mix.workloads[size_t(c) % mix.workloads.size()]);
        for (size_t i = placed.size(); i > 1; --i)
            std::swap(placed[i - 1], placed[rng.below(i)]);
        mix.workloads = placed;
    }
    return opt;
}

/** Systems fig9Sweep builds: mix-major, then side, then batch. */
unsigned
sweepJobs(const Fig9Options &opt)
{
    return unsigned(opt.mixes.size()) * 2 * opt.batches;
}

SystemConfig
sweepJobConfig(const Fig9Options &opt, unsigned job)
{
    const unsigned b = opt.batches;
    BtbMode mode =
        (job / b) % 2 ? BtbMode::Virtualized : BtbMode::Dedicated;
    SystemConfig cfg = fig9Config(opt.mixes[job / (2 * b)], opt, mode);
    cfg.seedOffset = job % b;
    return cfg;
}

/** Every deterministic field of the sweep's rows, as text. */
uint64_t
rowsHash(const std::vector<Fig9Row> &rows)
{
    std::ostringstream os;
    os << std::hexfloat;
    for (const Fig9Row &row : rows) {
        os << row.mix << ' ' << row.edgeStability << ' '
           << row.dedicatedIpc << ' ' << row.virtualizedIpc << ' '
           << row.speedupPct << ' ' << row.ciPct << ' '
           << row.dedicatedHitPct << ' ' << row.virtualizedHitPct
           << ' ' << row.eventsExecuted;
        for (double p : row.batchPct)
            os << ' ' << p;
        os << '\n';
    }
    return config::fnv1a(os.str());
}

// ---- Sweep replay ---------------------------------------------------------

/** The sweep's Systems rebuilt and run one by one on a worker pool of
 *  fig9Sweep's size, so each can be checked, counted and traced. */
struct SweepReplay {
    std::vector<SystemRun> runs;
    unsigned jobs = 1;
    double poolSeconds = 0.0;
    double wall = 0.0;
    uint64_t statsHash = 0;
    Counts counts{};
    std::string failure;
};

/**
 * Replay every System of the sweep and check it against the rows
 * fig9Sweep returned for the same seed: each System passes its own
 * checks, and the rows' IPCs and per-batch speedups follow bit for
 * bit from the replayed IPCs.
 */
SweepReplay
replaySweep(const Plan &plan, uint64_t seed,
            const std::vector<Fig9Row> &rows, Tracer *tracer,
            unsigned run)
{
    SweepReplay out;
    const Clock::time_point t0 = Clock::now();
    int root = tracer ? tracer->open("workload", t0, -1, run) : -1;
    const Fig9Options opt = sweepOptions(parseWorkload(plan), seed);
    const Clock::time_point t1 = Clock::now();
    const unsigned n = sweepJobs(opt);
    out.runs.resize(n);
    out.jobs = effectiveHarnessJobs(n);
    int pool =
        tracer ? tracer->open("harness.pool", t1, root, run) : -1;
    std::atomic<unsigned> next{0};
    auto worker = [&] {
        for (unsigned j = next++; j < n; j = next++) {
            try {
                out.runs[j] = runSystem(
                    [&] { return sweepJobConfig(opt, j); },
                    opt.warmupRecords, opt.measureRecords, tracer, pool,
                    run);
            } catch (const std::exception &e) {
                out.runs[j].failure = e.what();
            }
        }
    };
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < out.jobs; ++w)
        threads.emplace_back(worker);
    for (std::thread &t : threads)
        t.join();
    const Clock::time_point t2 = Clock::now();
    out.poolSeconds = secondsBetween(t1, t2);

    std::ostringstream hashes;
    hashes << hex(rowsHash(rows));
    for (unsigned j = 0; j < n; ++j) {
        const SystemRun &r = out.runs[j];
        if (out.failure.empty() && !r.failure.empty())
            out.failure = "sweep System " + std::to_string(j) + ": " +
                          r.failure;
        addCounts(out.counts, r.counts);
        hashes << ' ' << hex(r.statsHash);
    }
    out.statsHash = config::fnv1a(hashes.str());
    const unsigned b = opt.batches;
    if (out.failure.empty() && rows.size() != opt.mixes.size())
        out.failure = "fig9Sweep returned the wrong number of rows";
    for (size_t m = 0; m < rows.size() && out.failure.empty(); ++m) {
        const SystemRun *ded = &out.runs[m * 2 * b];
        const SystemRun *virt = ded + b;
        double ded_sum = 0.0, virt_sum = 0.0;
        bool same = rows[m].batchPct.size() == b;
        for (unsigned i = 0; i < b && same; ++i) {
            ded_sum += ded[i].ipc;
            virt_sum += virt[i].ipc;
            double p = ded[i].ipc > 0.0
                           ? 100.0 * (virt[i].ipc / ded[i].ipc - 1.0)
                           : 0.0;
            same = p == rows[m].batchPct[i];
        }
        same = same && ded_sum / double(b) == rows[m].dedicatedIpc &&
               virt_sum / double(b) == rows[m].virtualizedIpc;
        if (!same)
            out.failure = "replayed Systems disagree with fig9Sweep "
                          "row " + rows[m].mix;
    }
    const Clock::time_point t3 = Clock::now();
    out.wall = secondsBetween(t0, t3);
    if (tracer) {
        tracer->close(pool, t2);
        int setup = tracer->record("harness.setup", t0, t1, root, run);
        tracer->record("config.parse", t0, t1, setup, run);
        tracer->record("harness.harvest", t2, t3, root, run);
        tracer->close(root, t3);
    }
    return out;
}

// ---- Run loop and results -------------------------------------------------

/** Worker threads of the sweep's harness pool (PVSIM_JOBS), clamped
 *  by the harness to the host's thread count. */
constexpr unsigned kSweepJobs = 2;

struct Options {
    std::string workload;
    std::string workloadDir;
    std::string spanFile;
    std::string commit = "unknown";
    std::string sourceHash = "unknown";
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/**
 * Call rep(i) until `budget` host seconds have passed, at least
 * min_reps times, and never start a rep that the previous one's
 * length says would end past the budget.
 */
template <class F>
void
repeatFor(double budget, unsigned min_reps, F &&rep)
{
    const Clock::time_point start = Clock::now();
    double last = 0.0;
    for (unsigned i = 0;; ++i) {
        if (i >= min_reps &&
            secondsBetween(start, Clock::now()) + last > budget)
            return;
        const Clock::time_point t = Clock::now();
        rep(i);
        last = secondsBetween(t, Clock::now());
    }
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // Linux reports KiB
}

/** Everything one invocation measured. */
struct Results {
    unsigned attempted = 0;
    unsigned failed = 0;
    std::vector<std::string> failures;
    uint64_t statsHash = 0;
    bool haveHash = false;

    // untraced runs
    std::vector<double> wall, setup, rate;
    /** Which repetition's wall time a run reports: 0 = the fastest,
     *  0.5 = the median (see endToEnd). */
    double wallQuantile = 0.0;
    double peakRss = 0.0;
    Counts counts{}; ///< simulated counters of one run

    // traced runs
    std::vector<double> tracedWall;
    std::vector<double> busyRatio;
    unsigned sims = 1;
    unsigned jobs = 1;
    Tracer tracer;
    LayerReplay replay;

    /** Count one attempt; a non-empty failure fails it. */
    void
    attempt(const std::string &failure)
    {
        ++attempted;
        std::cout << "attempt " << attempted;
        if (failure.empty()) {
            std::cout << " ok" << std::endl;
            return;
        }
        ++failed;
        failures.push_back(failure);
        std::cout << " failed: " << failure << std::endl;
    }

    /** Every run of one seed must dump identical stats. */
    std::string
    checkHash(uint64_t h)
    {
        if (!haveHash) {
            statsHash = h;
            haveHash = true;
            return "";
        }
        return h == statsHash ? ""
                              : "stats hash " + hex(h) +
                                    " differs from the first run's " +
                                    hex(statsHash);
    }
};

/** Set-up is short and noisy, and its median needs many samples: top
 *  up the repetitions' samples with set-up-only runs. */
template <class F>
void
topUpSetup(Results &res, F &&setup_once)
{
    constexpr size_t kSetupSamples = 48;
    while (res.failed == 0 && res.setup.size() < kSetupSamples)
        res.setup.push_back(setup_once());
}

void
runSingle(const Plan &plan, const Options &o, Results &res)
{
    auto make = [&] { return singleConfig(parseWorkload(plan), o.seed); };
    auto one = [&](Tracer *tracer, unsigned run) {
        std::string failure;
        try {
            int root = -1;
            if (tracer)
                root = tracer->open("workload", Clock::now(), -1, run);
            SystemRun r = runSystem(make, plan.warmup, plan.measure,
                                    tracer, root, run);
            if (tracer) {
                tracer->close(root, Clock::now());
                res.tracedWall.push_back(r.wall);
                res.busyRatio.push_back(1.0);
                if (run == 1)
                    res.counts = r.counts;
            } else {
                res.wall.push_back(r.wall);
                res.setup.push_back(r.setup());
                res.rate.push_back(double(r.numCores) *
                                   double(plan.measure) / r.measure);
                res.counts = r.counts;
            }
            failure = r.failure;
            if (failure.empty())
                failure = res.checkHash(r.statsHash);
            std::cout << "run " << (tracer ? "traced" : "untraced")
                      << " wall_s " << r.wall << " setup_s " << r.setup()
                      << " warmup_s " << r.warmup << " measure_s "
                      << r.measure << " stats " << hex(r.statsHash)
                      << std::endl;
        } catch (const std::exception &e) {
            failure = e.what();
        }
        res.attempt(failure);
    };
    const double untraced = o.trace ? 0.4 * o.seconds : o.seconds;
    repeatFor(untraced, 2, [&](unsigned) { one(nullptr, 0); });
    res.peakRss = peakRssMb();
    if (!o.trace) {
        topUpSetup(res, [&] {
            const Clock::time_point t0 = Clock::now();
            System sys(make());
            return secondsBetween(t0, Clock::now());
        });
        return;
    }
    repeatFor(0.4 * o.seconds, 2,
              [&](unsigned i) { one(&res.tracer, i + 1); });
    const Scenario s = parseWorkload(plan);
    res.replay = replayLayers({singleConfig(s, o.seed)}, 40'000, 5);
}

void
runSweep(const Plan &plan, const Options &o, Results &res)
{
    // Sizes fig9Sweep's pool and the replay's, which sizes itself the
    // same way. Two workers fan the sweep out while leaving half of a
    // 4-vCPU host free: with one worker per vCPU, every repetition
    // waits on whichever core another tenant of a shared host is
    // slowing at the time, and whole runs spread past the bounds.
    setenv("PVSIM_JOBS", std::to_string(kSweepJobs).c_str(), 1);
    // Config to ready Systems, timed apart from the sweep, which
    // builds its Systems on its workers.
    auto setup_once = [&] {
        const Clock::time_point t0 = Clock::now();
        const Fig9Options opt =
            sweepOptions(parseWorkload(plan), o.seed);
        double seconds = secondsBetween(t0, Clock::now());
        for (unsigned j = 0; j < sweepJobs(opt); ++j) {
            const Clock::time_point c0 = Clock::now();
            System sys(sweepJobConfig(opt, j));
            seconds += secondsBetween(c0, Clock::now());
        }
        return seconds;
    };
    res.wallQuantile = 0.5;
    std::vector<Fig9Row> rows;
    auto one = [&] {
        std::string failure;
        try {
            const Clock::time_point t0 = Clock::now();
            const Fig9Options opt =
                sweepOptions(parseWorkload(plan), o.seed);
            const Clock::time_point t1 = Clock::now();
            rows = fig9Sweep(opt);
            const Clock::time_point t2 = Clock::now();
            const uint64_t h = rowsHash(rows);
            const Clock::time_point t3 = Clock::now();
            const double records = double(sweepJobs(opt)) *
                                   double(opt.numCores) *
                                   double(opt.warmupRecords +
                                          opt.measureRecords);
            res.wall.push_back(secondsBetween(t0, t3));
            res.setup.push_back(setup_once());
            res.rate.push_back(records / secondsBetween(t1, t2));
            failure = res.checkHash(h);
            std::cout << "run untraced wall_s " << res.wall.back()
                      << " setup_s " << res.setup.back() << " sweep_s "
                      << secondsBetween(t1, t2) << " rows "
                      << hex(h) << std::endl;
        } catch (const std::exception &e) {
            failure = e.what();
        }
        res.attempt(failure);
    };
    const double untraced = o.trace ? 0.4 * o.seconds : o.seconds;
    repeatFor(untraced, 2, [&](unsigned) { one(); });
    res.peakRss = peakRssMb();
    if (rows.empty())
        return;
    if (!o.trace)
        topUpSetup(res, setup_once);

    // The replay checks the sweep's Systems; under --trace 1 it is
    // also the traced run. Its hash covers the rows and every
    // System's stats dump, so it replaces the rows-only hash.
    res.haveHash = false;
    auto replay = [&](Tracer *tracer, unsigned run) {
        std::string failure;
        try {
            SweepReplay r = replaySweep(plan, o.seed, rows, tracer, run);
            failure = r.failure;
            if (failure.empty())
                failure = res.checkHash(r.statsHash);
            res.counts = r.counts;
            res.sims = unsigned(r.runs.size());
            res.jobs = r.jobs;
            double busy = 0.0;
            for (const SystemRun &s : r.runs)
                busy += s.wall;
            if (tracer) {
                res.tracedWall.push_back(r.wall);
                res.busyRatio.push_back(busy /
                                        (r.poolSeconds * r.jobs));
            }
            std::cout << "run replay wall_s " << r.wall << " stats "
                      << hex(r.statsHash) << std::endl;
        } catch (const std::exception &e) {
            failure = e.what();
        }
        res.attempt(failure);
    };
    if (!o.trace) {
        replay(nullptr, 0);
        return;
    }
    repeatFor(0.4 * o.seconds, 2,
              [&](unsigned i) { replay(&res.tracer, i + 1); });
    const Fig9Options opt = sweepOptions(parseWorkload(plan), o.seed);
    std::vector<SystemConfig> cfgs;
    for (const WorkloadMix &mix : opt.mixes)
        cfgs.push_back(fig9Config(mix, opt, BtbMode::Virtualized));
    res.replay = replayLayers(cfgs, 10'000, 5);
}

// ---- Output ----------------------------------------------------------------

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += (c == '\n' ? ' ' : c);
    }
    return out + "\"";
}

/**
 * The end-to-end metrics. Other tenants of a shared host only ever
 * slow a repetition down, in bursts from a fraction of a second to
 * minutes, so a single-System run's timing is its fastest repetition:
 * it tracks the simulator's own cost and varies far less between runs
 * than the median does. A sweep repetition waits on two workers at
 * once and is fast only when both are; its fastest repetition is a
 * rare extreme, and the sweep reports its median repetition instead.
 * Set-up, short enough to sample many times, reports its median.
 */
std::vector<Metric>
endToEnd(const Results &res)
{
    return {
        {"records_per_s", quantile(res.rate, 1.0 - res.wallQuantile),
         "1/s"},
        {"wall_s", quantile(res.wall, res.wallQuantile), "s"},
        {"setup_s", median(res.setup), "s"},
        {"peak_rss_mb", res.peakRss, "MB"},
    };
}

/** Median over traced runs of one span name's per-run total. */
double
spanMedian(const std::map<std::string, std::map<unsigned, SpanTotals>>
               &totals,
           const std::string &name, bool self)
{
    std::vector<double> v;
    auto it = totals.find(name);
    if (it != totals.end()) {
        for (const auto &kv : it->second)
            v.push_back(self ? kv.second.selfSeconds : kv.second.seconds);
    }
    return median(v);
}

/** Median over traced runs of the share of the run's wall time that
 *  its top-level harness.* spans cover. */
double
harnessCoveragePct(const std::vector<Span> &spans)
{
    std::map<unsigned, double> root, covered;
    std::vector<bool> is_root(spans.size(), false);
    for (size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent < 0) {
            is_root[i] = true;
            root[spans[i].run] += spans[i].seconds();
        }
    }
    for (const Span &s : spans) {
        if (s.parent >= 0 && is_root[size_t(s.parent)] &&
            std::string(s.name).rfind("harness.", 0) == 0)
            covered[s.run] += s.seconds();
    }
    std::vector<double> v;
    for (const auto &kv : root)
        v.push_back(kv.second > 0.0 ? 100.0 * covered[kv.first] /
                                          kv.second
                                    : 0.0);
    return median(v);
}

std::vector<Metric>
perLayer(const Results &res)
{
    const std::vector<Span> spans = res.tracer.spans();
    const auto totals = spanTotals(spans);
    auto span = [&](const char *name) {
        return spanMedian(totals, name, false);
    };
    auto self = [&](const char *name) {
        return spanMedian(totals, name, true);
    };
    const Counts &n = res.counts;
    const double measure_s = span("harness.measure");
    const double traced = quantile(res.tracedWall, res.wallQuantile);
    const double untraced = quantile(res.wall, res.wallQuantile);
    return {
        {"config.parse_s", span("config.parse"), "s"},
        {"harness.setup_s", span("harness.setup"), "s"},
        {"harness.setup.self_s", self("harness.setup"), "s"},
        {"harness.warmup_s", span("harness.warmup"), "s"},
        {"harness.warmup.self_s", self("harness.warmup"), "s"},
        {"harness.measure_s", measure_s, "s"},
        {"harness.harvest_s", span("harness.harvest"), "s"},
        {"harness.harvest.self_s", self("harness.harvest"), "s"},
        {"harness.teardown_s", span("harness.teardown"), "s"},
        {"harness.span_coverage_pct", harnessCoveragePct(spans), "%"},
        {"harness.sims", double(res.sims), "count"},
        {"harness.jobs", double(res.jobs), "count"},
        {"harness.pool_busy_ratio", median(res.busyRatio), "ratio"},
        {"bench.untraced_wall_s", untraced, "s"},
        {"bench.traced_wall_s", traced, "s"},
        {"bench.tracing_overhead_s", traced - untraced, "s"},
        {"trace.ns_per_record", res.replay.traceNsPerRecord, "ns"},
        {"mem.l1d_accesses", double(n[kL1dAccesses]), "count"},
        {"mem.l1d_miss_pct", pct(n[kL1dMisses], n[kL1dAccesses]), "%"},
        {"mem.l2_requests", double(n[kL2Requests]), "count"},
        {"mem.l2_requests_pv", double(n[kL2RequestsPv]), "count"},
        {"mem.l2_miss_pct", pct(n[kL2Misses], n[kL2Requests]), "%"},
        {"mem.l2_writebacks_pv", double(n[kL2WritebacksPv]), "count"},
        {"mem.dram_bytes", double(n[kDramBytes]), "bytes"},
        {"mem.l2_valid_pct_at_measure",
         pct(n[kL2ValidAtMeasure], n[kL2Blocks]), "%"},
        {"mem.l1_ns_per_access", res.replay.l1NsPerAccess, "ns"},
        {"prefetch.issued", double(n[kPfIssued]), "count"},
        {"prefetch.covered", double(n[kCovered]), "count"},
        {"prefetch.overpred_pct",
         pct(n[kOverpredictions], n[kCovered] + n[kUncovered]), "%"},
        {"coverage_pct", coveragePct(n), "%"},
        {"pv.operations", double(n[kPvOps]), "count"},
        {"pv.pvcache_hit_pct", pct(n[kPvHits], n[kPvHits] + n[kPvMisses]),
         "%"},
        {"pv.mem_requests", double(n[kPvMemRequests]), "count"},
        {"pv.fill_latency_ticks", ratio(n[kPvFillTicks], n[kPvFills]),
         "ticks"},
        {"pv.dropped_ops", double(n[kPvDropped]), "count"},
        {"pv.victim_hits", double(n[kPvVictimHits]), "count"},
        {"pv.writebacks", double(n[kPvWritebacks]), "count"},
        {"pv.ns_per_access", res.replay.pvNsPerAccess, "ns"},
        {"pv.codec_ns_per_decode", res.replay.codecNsPerDecode, "ns"},
        {"pv.codec_ns_per_encode", res.replay.codecNsPerEncode, "ns"},
        {"btb_redirect_pct", btbRedirectPct(n), "%"},
        {"sim.events", double(n[kEvents]), "count"},
        {"sim.events_per_record", ratio(n[kEvents], n[kRecords]),
         "ratio"},
        {"sim.events_per_s",
         measure_s > 0.0 ? double(n[kEvents]) / measure_s : 0.0, "1/s"},
        {"sim_ipc", simIpc(n), "IPC"},
        {"cpu.insts", double(n[kInsts]), "count"},
        {"cpu.btb_hit_pct",
         pct(n[kBtbHits], n[kBtbHits] + n[kBtbMispredicts]), "%"},
        {"cpu.btb_unavailable", double(n[kBtbUnavailable]), "count"},
        {"stats.reset_s", span("stats.reset"), "s"},
        {"stats.dump_s", span("stats.dump"), "s"},
    };
}

void
printResult(const Results &res, const std::vector<Metric> &metrics)
{
    std::cout << "{\"correct\": "
              << (res.failed == 0 && res.attempted > 0 ? "true" : "false")
              << ", \"attempted\": " << res.attempted
              << ", \"failed\": " << res.failed << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::cout << (i ? ", " : "") << quoted(metrics[i].name)
                  << ": {\"value\": " << number(metrics[i].value)
                  << ", \"unit\": " << quoted(metrics[i].unit) << "}";
    }
    std::cout << "}}" << std::endl;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "pvbench: " << why
              << "\nusage: pvbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --workload-dir DIR [--span-file PATH] "
                 "[--commit C] [--source-hash H]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + key);
        std::string val = argv[++i];
        try {
            if (key == "--workload")
                o.workload = val;
            else if (key == "--workload-dir")
                o.workloadDir = val;
            else if (key == "--span-file")
                o.spanFile = val;
            else if (key == "--commit")
                o.commit = val;
            else if (key == "--source-hash")
                o.sourceHash = val;
            else if (key == "--seed")
                o.seed = std::stoull(val);
            else if (key == "--seconds")
                o.seconds = std::stod(val);
            else if (key == "--trace")
                o.trace = std::stoi(val) != 0;
            else
                usage("unknown option " + key);
        } catch (const std::logic_error &) {
            usage("bad value for " + key + ": " + val);
        }
    }
    if (o.workload.empty() || o.workloadDir.empty())
        usage("--workload and --workload-dir are required");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    return o;
}

Plan
loadPlan(const Options &o)
{
    Plan plan;
    plan.name = o.workload;
    std::ifstream in(o.workloadDir + "/" + o.workload + ".json");
    if (!in)
        usage("no workload file for " + o.workload);
    std::ostringstream text;
    text << in.rdbuf();
    plan.text = text.str();
    try {
        plan.scenario = parseWorkload(plan);
    } catch (const std::exception &e) {
        usage(std::string("bad workload file: ") + e.what());
    }
    const Scenario &s = plan.scenario;
    if (s.kind == "fig9") {
        plan.sweep = true;
    } else if (s.kind == "timed") {
        plan.warmup = s.warmupRecords;
        plan.measure = s.measureRecords;
    } else if (s.kind == "functional") {
        plan.warmup = s.warmupRefs;
        plan.measure = s.measureRefs;
    } else {
        usage("workload kind " + s.kind + " is not benchmarked");
    }
    return plan;
}

void
printReport(const Options &o, const Plan &plan, const Results &res)
{
#ifdef NDEBUG
    const bool release = std::string(PVBENCH_BUILD_TYPE) == "Release";
#else
    const bool release = false;
#endif
    if (!release)
        std::cout << "WARNING: not a Release build (" << PVBENCH_BUILD_TYPE
                  << "); timings are not comparable" << std::endl;
    std::cout << "provenance {\"commit\": " << quoted(o.commit)
              << ", \"source_sha256\": " << quoted(o.sourceHash)
              << ", \"nproc\": " << std::thread::hardware_concurrency()
              << ", \"build_type\": " << quoted(PVBENCH_BUILD_TYPE)
              << ", \"release_build\": " << (release ? "true" : "false")
              << ", \"compiler\": " << quoted(PVBENCH_COMPILER)
              << ", \"workload\": " << quoted(plan.name)
              << ", \"seed\": " << o.seed
              << ", \"config_fingerprint\": "
              << quoted(config::fingerprintHex(
                     scenarioFingerprint(plan.scenario)))
              << ", \"stats_hash\": " << quoted(hex(res.statsHash))
              << "}" << std::endl;
    for (const std::string &f : res.failures)
        std::cout << "failure: " << f << std::endl;
    if (o.trace) {
        // Layer self times: each span minus the spans it encloses.
        for (const auto &[name, runs] : spanTotals(res.tracer.spans())) {
            std::vector<double> total, self;
            for (const auto &kv : runs) {
                total.push_back(kv.second.seconds);
                self.push_back(kv.second.selfSeconds);
            }
            std::cout << "span " << name << " runs " << runs.size()
                      << " median_s " << median(total)
                      << " median_self_s " << median(self) << std::endl;
        }
        return;
    }
    for (const Metric &m : endToEnd(res))
        std::cout << "end_to_end " << m.name << " " << number(m.value)
                  << " " << m.unit << std::endl;
    auto spread = [](const char *name, const std::vector<double> &v,
                     const char *unit) {
        std::cout << "distribution " << name << " n " << v.size()
                  << " min " << quantile(v, 0.0) << " p25 "
                  << quantile(v, 0.25) << " median " << median(v)
                  << " p75 " << quantile(v, 0.75) << " max "
                  << quantile(v, 1.0) << " " << unit << std::endl;
    };
    spread("records_per_s", res.rate, "1/s");
    spread("wall_s", res.wall, "s");
    spread("setup_s", res.setup, "s");
    // Simulated results, bit-identical across speed-only changes.
    const Counts &n = res.counts;
    const bool timing = plan.scenario.kind != "functional";
    auto show = [](const char *name, bool applies, double v,
                   const char *unit, const char *why) {
        std::cout << "simulated " << name << " ";
        if (applies)
            std::cout << number(v) << " " << unit << std::endl;
        else
            std::cout << "n/a (" << why << ")" << std::endl;
    };
    show("sim_ipc", timing, simIpc(n), "IPC", "functional mode has no time");
    show("btb_redirect_pct", n[kVirtBtbScored] > 0, btbRedirectPct(n),
         "%", "no virtualized BTB");
    show("coverage_pct", n[kSmsCores] > 0, coveragePct(n), "%",
         "no SMS prefetcher");
}

} // anonymous namespace
} // namespace pvbench

int
main(int argc, char **argv)
{
    using namespace pvbench;
    const Options o = parseArgs(argc, argv);
    const Plan plan = loadPlan(o);
    Results res;
    if (plan.sweep)
        runSweep(plan, o, res);
    else
        runSingle(plan, o, res);
    printReport(o, plan, res);
    if (o.trace && !o.spanFile.empty()) {
        std::ofstream out(o.spanFile);
        writeSpansJson(res.tracer.spans(), out);
        if (!out)
            std::cerr << "pvbench: could not write " << o.spanFile
                      << std::endl;
    }
    printResult(res, o.trace ? perLayer(res) : endToEnd(res));
    return 0;
}
