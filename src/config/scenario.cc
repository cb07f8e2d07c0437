#include "config/scenario.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/virt_engine.hh"
#include "harness/config_presets.hh"
#include "harness/row_json.hh"
#include "trace/workload.hh"

namespace pvsim {

using json::ConfigError;

const std::vector<std::string> &
Scenario::kinds()
{
    static const std::vector<std::string> k = {
        "timed", "functional", "fig9", "qos", "qos_hetero",
    };
    return k;
}

Scenario
parseScenario(const std::string &text, const std::string &label)
{
    return config::parseConfig<Scenario>(text, label);
}

Scenario
loadScenarioFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw ConfigError(path + ": cannot open scenario file");
    std::ostringstream buf;
    buf << in.rdbuf();
    Scenario s = parseScenario(buf.str(), path);
    validateScenario(s);
    return s;
}

std::string
dumpScenario(const Scenario &s)
{
    return config::dumpConfig(s);
}

uint64_t
scenarioFingerprint(const Scenario &s)
{
    return config::fingerprint(s);
}

namespace {

/**
 * Empty when `name` is a workload preset, else the error message:
 * workloadPreset() is fatal on an unknown name, which would end a
 * whole corpus run.
 */
std::string
unknownPresetError(const std::string &name)
{
    const std::vector<std::string> &known = workloadPresetNames();
    if (std::find(known.begin(), known.end(), name) != known.end())
        return "";
    std::string list;
    for (const std::string &k : known)
        list += (list.empty() ? "" : ", ") + k;
    return "unknown workload preset \"" + name + "\" (one of: " +
           list + ")";
}

/**
 * The structural preconditions System's constructor and the engine
 * adapters assert on, checked on a config the scenario will build;
 * `where` prefixes the error path.
 */
void
validateSystem(const SystemConfig &cfg, const std::string &where)
{
    auto fail = [&where](const std::string &path,
                         const std::string &msg) {
        throw ConfigError(where + "." + path + ": " + msg);
    };
    if (cfg.numCores < 1)
        fail("num_cores", "must be >= 1");
    std::string bad = unknownPresetError(cfg.workload);
    if (!bad.empty())
        fail("workload", bad);
    for (size_t i = 0; i < cfg.workloadMix.size(); ++i) {
        bad = unknownPresetError(cfg.workloadMix[i]);
        if (!bad.empty())
            fail("workload_mix[" + std::to_string(i) + "]", bad);
    }
    if (cfg.btb.mode == BtbMode::Dedicated &&
        (cfg.btb.numSets == 0 || cfg.btb.assoc == 0))
        fail("btb", "num_sets and assoc must be >= 1");
    if (cfg.prefetch == PrefetchMode::SmsDedicated &&
        (cfg.phtGeometry.numSets == 0 || cfg.phtGeometry.assoc == 0))
        fail("pht_geometry", "num_sets and assoc must be >= 1");
    const std::vector<VirtEngineConfig> registry =
        cfg.engineRegistry();
    if (!registry.empty() && cfg.pvCacheEntries == 0)
        fail("pv_cache_entries",
             "must be >= 1 when a virtualized engine runs");
    // The implicit PHT/BTB tenants come first, each spelled by its
    // own section; the explicit entries follow.
    const size_t implicit = registry.size() - cfg.virtEngines.size();
    uint64_t bytes = 0;
    for (size_t i = 0; i < registry.size(); ++i) {
        const VirtEngineConfig &e = registry[i];
        const std::string path =
            i >= implicit
                ? "virt_engines[" + std::to_string(i - implicit) + "]"
            : e.kind == VirtEngineKind::Pht ? "pht_geometry"
                                            : "btb";
        if (e.numSets == 0)
            fail(path, "num_sets must be >= 1");
        if (i >= implicit && e.kind == VirtEngineKind::Pht)
            fail(path, "a PHT tenant is requested with prefetch "
                       "\"sms_virtualized\", not a registry entry");
        const PvSetGeometry g = engineGeometry(e);
        if (!g.fieldsInRange())
            fail(path, std::to_string(g.ways) + " ways of " +
                           std::to_string(g.tagBits) +
                           "-bit tags are outside the PV codec's "
                           "range (1.." +
                           std::to_string(kPvMaxWays) +
                           " ways, tags <= 32 bits)");
        if (!g.fitsLine())
            fail(path, "set of " + std::to_string(g.ways) + " x " +
                           std::to_string(g.entryBits()) +
                           "-bit entries does not fit a " +
                           std::to_string(kBlockBytes) +
                           "-byte line");
        bytes += uint64_t(e.numSets) * kBlockBytes;
    }
    if (bytes > cfg.pvBytesPerCore)
        fail("pv_bytes_per_core",
             std::to_string(cfg.pvBytesPerCore) +
                 " bytes cannot hold the engines' " +
                 std::to_string(bytes) + " bytes of PVTables");
}

} // namespace

void
validateScenario(const Scenario &s)
{
    if (s.name.empty())
        throw ConfigError("scenario has no \"name\"");
    const auto &kinds = Scenario::kinds();
    if (std::find(kinds.begin(), kinds.end(), s.kind) == kinds.end()) {
        std::string known;
        for (const std::string &k : kinds)
            known += (known.empty() ? "" : ", ") + k;
        throw ConfigError(s.name + ": unknown kind \"" + s.kind +
                          "\" (one of: " + known + ")");
    }
    if (s.kind == "timed" && s.measureRecords == 0)
        throw ConfigError(s.name + ": measure_records must be > 0");
    if (s.kind == "functional" && s.measureRefs == 0)
        throw ConfigError(s.name + ": measure_refs must be > 0");
    if (s.kind == "timed" || s.kind == "functional")
        validateSystem(s.system, s.name + ": system");
    if (s.kind == "fig9") {
        if (s.fig9.batches == 0)
            throw ConfigError(s.name +
                              ": fig9.batches must be >= 1");
        if (s.fig9.measureRecords == 0)
            throw ConfigError(
                s.name + ": fig9.measure_records must be > 0");
        for (size_t i = 0; i < s.fig9.edgeStabilities.size(); ++i) {
            double v = s.fig9.edgeStabilities[i];
            // kFig9MixStability (-1) = "the mix's own stability".
            if (v != kFig9MixStability && !(v >= 0.0 && v <= 1.0))
                throw ConfigError(
                    s.name + ": fig9.edge_stabilities[" +
                    std::to_string(i) +
                    "] must be in [0, 1] or -1 (mix default)");
        }
        // Every System the sweep builds: both sides of each mix.
        for (const WorkloadMix &mix : s.fig9.mixes.empty()
                                          ? presetMixes()
                                          : s.fig9.mixes) {
            for (BtbMode mode :
                 {BtbMode::Dedicated, BtbMode::Virtualized}) {
                validateSystem(fig9Config(mix, s.fig9, mode),
                               s.name + ": fig9 (mix \"" + mix.name +
                                   "\", " +
                                   (mode == BtbMode::Dedicated
                                        ? "dedicated"
                                        : "virtualized") +
                                   " side) system");
            }
        }
    }
    if (s.kind == "qos_hetero" && s.qos.numCores % 4 != 0)
        throw ConfigError(s.name + ": qos.cores must be a multiple "
                                   "of 4 for the heterogeneous "
                                   "cluster matrix");
    if (s.kind == "qos_hetero" && !s.qos.settings.empty())
        throw ConfigError(s.name + ": qos.settings: the "
                                   "heterogeneous matrix runs fixed "
                                   "per-cluster contracts; settings "
                                   "apply to kind \"qos\" only");
    if (s.kind == "qos" || s.kind == "qos_hetero") {
        if (s.qos.batches == 0)
            throw ConfigError(s.name + ": qos.batches must be >= 1");
        if (s.qos.measureRecords == 0)
            throw ConfigError(s.name +
                              ": qos.measure_records must be > 0");
        // Every setting the sweep runs; the heterogeneous matrix
        // installs its contracts over the preset settings' configs.
        for (const QosSetting &q :
             s.kind == "qos" && !s.qos.settings.empty()
                 ? s.qos.settings
                 : presetQosSettings()) {
            validateSystem(qosConfig(s.qos, q),
                           s.name + ": qos (setting \"" + q.label +
                               "\") system");
        }
    }
}

int
scenarioCores(const Scenario &s)
{
    if (s.kind == "fig9")
        return s.fig9.numCores;
    if (s.kind == "qos" || s.kind == "qos_hetero")
        return s.qos.numCores;
    return s.system.numCores;
}

std::vector<std::string>
listScenarioFiles(const std::string &path)
{
    namespace fs = std::filesystem;
    std::vector<std::string> files;
    if (fs::is_directory(path)) {
        for (const auto &e : fs::directory_iterator(path)) {
            if (!e.is_regular_file())
                continue;
            const fs::path &p = e.path();
            if (p.extension() == ".json" &&
                p.filename() != "MANIFEST.json")
                files.push_back(p.string());
        }
        std::sort(files.begin(), files.end());
        if (files.empty())
            throw ConfigError(path +
                              ": no scenario *.json files found");
    } else if (fs::is_regular_file(path)) {
        files.push_back(path);
    } else {
        throw ConfigError(path + ": no such file or directory");
    }
    return files;
}

unsigned
fig9JobsEffective(const Fig9Options &opt)
{
    size_t mixes =
        opt.mixes.empty() ? presetMixes().size() : opt.mixes.size();
    size_t stabilities = opt.edgeStabilities.empty()
                             ? 1
                             : opt.edgeStabilities.size();
    return effectiveHarnessJobs(
        unsigned(mixes * stabilities * 2 * opt.batches));
}

unsigned
qosJobsEffective(const QosOptions &opt)
{
    size_t settings = opt.settings.empty()
                          ? presetQosSettings().size()
                          : opt.settings.size();
    return effectiveHarnessJobs(unsigned(settings * opt.batches));
}

namespace {

std::string
functionalRowJson(const FunctionalResult &r)
{
    std::ostringstream os;
    os << "{\"covered_pct\": " << r.coverage.coveredPct()
       << ", \"uncovered_pct\": " << r.coverage.uncoveredPct()
       << ", \"overprediction_pct\": "
       << r.coverage.overpredictionPct()
       << ", \"l2_requests\": " << r.traffic.l2Requests
       << ", \"l2_requests_pv\": " << r.traffic.l2RequestsPv
       << ", \"l2_misses\": " << r.traffic.l2Misses()
       << ", \"l2_writebacks\": " << r.traffic.l2Writebacks()
       << ", \"offchip_bytes\": " << r.traffic.offChipBytes()
       << ", \"pv_l2_fill_rate\": " << r.pvL2FillRate << "}";
    return os.str();
}

} // namespace

std::string
runScenarioJson(const Scenario &s, const std::string &file_label)
{
    std::vector<std::string> rows;
    std::string extra;

    if (s.kind == "timed") {
        TimedRun r =
            timedRun(s.system, s.warmupRecords, s.measureRecords);
        rows.push_back("{" + timedRunJson(r) + "}");
    } else if (s.kind == "functional") {
        rows.push_back(functionalRowJson(runFunctionalMeasured(
            s.system, s.warmupRefs, s.measureRefs)));
    } else if (s.kind == "fig9") {
        unsigned jobs = fig9JobsEffective(s.fig9);
        for (const Fig9Row &r : fig9Sweep(s.fig9))
            rows.push_back(fig9RowJson(r, jobs));
    } else if (s.kind == "qos") {
        unsigned jobs = qosJobsEffective(s.qos);
        for (const QosRow &r : qosSweep(s.qos))
            rows.push_back(qosRowJson(r, jobs));
    } else if (s.kind == "qos_hetero") {
        QosHeterogeneousResult het = qosHeterogeneous(s.qos);
        for (const QosClusterRow &c : het.clusters)
            rows.push_back(qosClusterRowJson(c));
        std::ostringstream os;
        os << ",\n      \"reference\": {"
           << timedRunJson(het.referenceRun) << "},\n"
           << "      \"protected\": {"
           << timedRunJson(het.protectedRun) << "}";
        extra = os.str();
    } else {
        throw ConfigError(s.name + ": unknown kind \"" + s.kind +
                          "\"");
    }

    std::ostringstream os;
    os << "{\n      \"name\": " << json::quote(s.name)
       << ",\n      \"kind\": " << json::quote(s.kind)
       << ",\n      \"file\": " << json::quote(file_label)
       << ",\n      \"fingerprint\": "
       << json::quote(
              config::fingerprintHex(scenarioFingerprint(s)))
       << ",\n      \"rows\": [\n";
    for (size_t i = 0; i < rows.size(); ++i)
        os << "        " << rows[i]
           << (i + 1 < rows.size() ? "," : "") << "\n";
    os << "      ]" << extra << "\n    }";
    return os.str();
}

} // namespace pvsim
