/**
 * @file
 * Tests for the declarative scenario layer: the committed corpus
 * (scenarios/ and the full-size scenarios/full/) parses, validates,
 * round-trips byte-stably and matches its fingerprint manifests; the
 * committed BENCH artifacts name the scenarios that produced them;
 * the victim scenarios pair with their twins; a parsed config is
 * bit-identical to its programmatic twin in both functional and
 * timing runs; and validation refuses systems that cannot be built.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "config/scenario.hh"
#include "harness/config_presets.hh"
#include "trace/workload.hh"

using namespace pvsim;
using json::ConfigError;

namespace {

std::string
sourcePath(const std::string &rel)
{
    return std::string(PVSIM_SOURCE_DIR) + "/" + rel;
}

std::string
scenariosDir()
{
    return sourcePath("scenarios");
}

/** The smoke corpus and the full-size experiments, each with its
 *  own MANIFEST.json. */
const char *const kCorpusDirs[] = {"scenarios", "scenarios/full"};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

std::string
baseName(const std::string &path)
{
    size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path
                                      : path.substr(slash + 1);
}

} // namespace

// ---- The committed corpus ---------------------------------------------

TEST(ScenarioCorpusTest, EveryScenarioLoadsValidatesAndRoundTrips)
{
    EXPECT_GE(listScenarioFiles(scenariosDir()).size(), 12u);
    for (const char *dir : kCorpusDirs) {
        for (const std::string &file :
             listScenarioFiles(sourcePath(dir))) {
            SCOPED_TRACE(file);
            Scenario s = loadScenarioFile(file); // throws on defects
            EXPECT_FALSE(s.name.empty());
            EXPECT_GE(scenarioCores(s), 1);
            // Canonical form is byte-stable under reparse.
            std::string canon = dumpScenario(s);
            Scenario again = parseScenario(canon, file);
            EXPECT_EQ(dumpScenario(again), canon);
            EXPECT_EQ(scenarioFingerprint(again),
                      scenarioFingerprint(s));
        }
    }
}

TEST(ScenarioCorpusTest, ManifestMatchesCorpusFingerprints)
{
    for (const char *dir : kCorpusDirs) {
        SCOPED_TRACE(dir);
        json::Value manifest = json::Value::parse(
            readFile(sourcePath(dir) + "/MANIFEST.json"));
        ASSERT_TRUE(manifest.isObject());
        std::vector<std::string> files =
            listScenarioFiles(sourcePath(dir));
        EXPECT_EQ(manifest.members().size(), files.size());
        for (const std::string &file : files) {
            SCOPED_TRACE(file);
            const json::Value *want = manifest.find(baseName(file));
            ASSERT_NE(want, nullptr)
                << "scenario missing from MANIFEST.json — regenerate "
                   "with: pvsim fingerprint DIR --json";
            Scenario s = loadScenarioFile(file);
            EXPECT_EQ(config::fingerprintHex(scenarioFingerprint(s)),
                      want->asString(baseName(file)))
                << "fingerprint drift — regenerate MANIFEST.json";
        }
    }
}

TEST(ScenarioCorpusTest, ListingSortsAndExcludesManifest)
{
    std::vector<std::string> files = listScenarioFiles(scenariosDir());
    for (size_t i = 1; i < files.size(); ++i)
        EXPECT_LT(files[i - 1], files[i]);
    for (const std::string &f : files) {
        EXPECT_EQ(f.find("MANIFEST"), std::string::npos) << f;
        // The full-size experiments stay out of a corpus run.
        EXPECT_EQ(f.find("/full/"), std::string::npos) << f;
    }
    // A single file expands to itself.
    std::vector<std::string> one = listScenarioFiles(files[0]);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], files[0]);
    EXPECT_THROW(listScenarioFiles(scenariosDir() + "/absent.json"),
                 ConfigError);
}

// ---- The committed artifacts and their scenarios -----------------------

TEST(ScenarioCorpusTest, Fig9MixedEqualsTheSmokeSweepOptions)
{
    Scenario s =
        loadScenarioFile(scenariosDir() + "/fig9-mixed.json");
    ASSERT_EQ(s.kind, "fig9");

    // The smoke budget of the CI sweep: the preset mixes at their
    // own branch profiles, a tiny record budget, two batches.
    Fig9Options smoke;
    smoke.penalty = 8;
    smoke.numCores = 4;
    smoke.batches = 2;
    smoke.warmupRecords = 1'000;
    smoke.measureRecords = 3'000;
    smoke.edgeStabilities = {kFig9MixStability};

    // Identical canonical form => fig9Sweep receives bit-identical
    // inputs, so its rows are bit-identical too (fig9Sweep is
    // deterministic given its options; only wall-clock fields vary).
    EXPECT_EQ(config::dumpConfig(s.fig9),
              config::dumpConfig(smoke));
    EXPECT_EQ(fig9JobsEffective(s.fig9), fig9JobsEffective(smoke));
}

TEST(ScenarioCorpusTest, CommittedArtifactsNameTheirScenarios)
{
    // Each committed BENCH artifact is a `pvsim run` of scenario
    // files: every result object's file must exist in its corpus
    // directory under the same name and fingerprint, so an edited
    // scenario fails here until its artifact is regenerated.
    const std::pair<const char *, const char *> artifacts[] = {
        {"tools/baselines/BENCH_fig9.smoke.json", "scenarios"},
        {"tools/baselines/BENCH_qos.smoke.json", "scenarios"},
        {"BENCH_fig9.json", "scenarios/full"},
        {"BENCH_qos.json", "scenarios/full"},
    };
    for (const auto &[artifact, dir] : artifacts) {
        SCOPED_TRACE(artifact);
        json::Value a =
            json::Value::parse(readFile(sourcePath(artifact)));
        const json::Value *results = a.find("scenarios");
        ASSERT_NE(results, nullptr);
        ASSERT_FALSE(results->items().empty());
        for (const json::Value &r : results->items()) {
            const std::string file =
                r.find("file")->asString("file");
            SCOPED_TRACE(file);
            Scenario s = loadScenarioFile(sourcePath(dir) + "/" + file);
            EXPECT_EQ(r.find("name")->asString("name"), s.name);
            EXPECT_EQ(r.find("fingerprint")->asString("fingerprint"),
                      config::fingerprintHex(scenarioFingerprint(s)))
                << "regenerate " << artifact << " with pvsim run";
        }
    }
}

namespace {

/** The mixes a fig9 section runs, each in canonical form. */
std::vector<std::string>
mixesRun(const Fig9Options &o)
{
    std::vector<std::string> out;
    for (const WorkloadMix &m : o.mixes.empty() ? presetMixes() : o.mixes)
        out.push_back(config::dumpConfig(m));
    return out;
}

/** The edge stabilities a fig9 section runs. */
std::vector<double>
stabilitiesRun(const Fig9Options &o)
{
    return o.edgeStabilities.empty()
               ? std::vector<double>{kFig9MixStability}
               : o.edgeStabilities;
}

template <class T>
bool
isSubset(const std::vector<T> &sub, const std::vector<T> &of)
{
    return std::all_of(sub.begin(), sub.end(), [&of](const T &x) {
        return std::find(of.begin(), of.end(), x) != of.end();
    });
}

} // namespace

TEST(ScenarioCorpusTest, VictimScenariosPairWithTheirTwins)
{
    // check_bench.py pairs each victim_entries > 0 row with the
    // victim_entries == 0 row of the same (mix, stability); that is
    // a matched pair only if the two scenarios agree on everything
    // else.
    const std::pair<const char *, const char *> pairs[] = {
        {"scenarios/fig9-mixed-victim.json", "scenarios/fig9-mixed.json"},
        {"scenarios/full/fig9-victim.json", "scenarios/full/fig9.json"},
    };
    for (const auto &[on_file, off_file] : pairs) {
        SCOPED_TRACE(on_file);
        Scenario on = loadScenarioFile(sourcePath(on_file));
        Scenario off = loadScenarioFile(sourcePath(off_file));
        ASSERT_EQ(on.kind, "fig9");
        ASSERT_EQ(off.kind, "fig9");
        EXPECT_GT(on.fig9.victimEntries, 0u);
        EXPECT_EQ(off.fig9.victimEntries, 0u);
        EXPECT_TRUE(isSubset(mixesRun(on.fig9), mixesRun(off.fig9)));
        EXPECT_TRUE(isSubset(stabilitiesRun(on.fig9),
                             stabilitiesRun(off.fig9)));
        Fig9Options same = on.fig9;
        same.victimEntries = off.fig9.victimEntries;
        same.mixes = off.fig9.mixes;
        same.edgeStabilities = off.fig9.edgeStabilities;
        EXPECT_EQ(config::dumpConfig(same),
                  config::dumpConfig(off.fig9));
    }
}

// ---- Parsed-vs-programmatic bit-identity ------------------------------

TEST(ScenarioRunTest, ParsedConfigMatchesProgrammaticFunctional)
{
    // The same machine, built in code and parsed from JSON.
    SystemConfig prog = pvConfig("apache", 8);
    Scenario s = parseScenario(
        "{\"name\": \"t\", \"kind\": \"functional\","
        " \"system\": {"
        "   \"workload\": \"apache\","
        "   \"prefetch\": \"sms_virtualized\","
        "   \"pht_geometry\": {\"num_sets\": 1024, \"assoc\": 11},"
        "   \"pv_cache_entries\": 8}}");
    EXPECT_EQ(config::dumpConfig(s.system),
              config::dumpConfig(prog));

    FunctionalResult a = runFunctionalMeasured(prog, 20'000, 50'000);
    FunctionalResult b =
        runFunctionalMeasured(s.system, 20'000, 50'000);
    // Functional fingerprint: exact counter equality, not tolerance.
    EXPECT_EQ(a.coverage.covered, b.coverage.covered);
    EXPECT_EQ(a.coverage.uncovered, b.coverage.uncovered);
    EXPECT_EQ(a.traffic.l2Requests, b.traffic.l2Requests);
    EXPECT_EQ(a.traffic.l2RequestsPv, b.traffic.l2RequestsPv);
    EXPECT_EQ(a.pvL2FillRate, b.pvL2FillRate);
}

TEST(ScenarioRunTest, ParsedConfigMatchesProgrammaticTiming)
{
    SystemConfig prog;
    prog.numCores = 2;
    prog.workloadMix = {"apache", "oracle"};
    prog.btbMispredictPenalty = 8;
    prog.btb.mode = BtbMode::Virtualized;
    prog.btb.numSets = 128;

    Scenario s = parseScenario(
        "{\"name\": \"t\", \"kind\": \"timed\","
        " \"warmup_records\": 500, \"measure_records\": 1500,"
        " \"system\": {"
        "   \"num_cores\": 2,"
        "   \"workload_mix\": [\"apache\", \"oracle\"],"
        "   \"btb_mispredict_penalty\": 8,"
        "   \"btb\": {\"mode\": \"virtualized\","
        "             \"num_sets\": 128}}}");
    EXPECT_EQ(config::dumpConfig(s.system),
              config::dumpConfig(prog));

    // Timing fingerprint: identical simulated outcome, event for
    // event (wall-clock fields excluded by construction).
    TimedRun a = timedRun(prog, 500, 1'500);
    TimedRun b = timedRun(s.system, s.warmupRecords,
                          s.measureRecords);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
}

// ---- Validation -------------------------------------------------------

TEST(ScenarioValidateTest, RejectsStructuralDefects)
{
    auto parse_only = [](const std::string &text) {
        return parseScenario(text); // no validateScenario
    };
    // Unknown kind.
    EXPECT_THROW(
        validateScenario(parse_only(
            "{\"name\": \"x\", \"kind\": \"sweep\"}")),
        ConfigError);
    // Missing name.
    EXPECT_THROW(validateScenario(parse_only("{\"kind\": \"timed\"}")),
                 ConfigError);
    // Zero measure budget for the kind that runs.
    EXPECT_THROW(
        validateScenario(parse_only(
            "{\"name\": \"x\", \"kind\": \"timed\","
            " \"measure_records\": 0}")),
        ConfigError);
    // Out-of-range stability (only -1 and [0, 1] are meaningful).
    EXPECT_THROW(
        validateScenario(parse_only(
            "{\"name\": \"x\", \"kind\": \"fig9\","
            " \"fig9\": {\"edge_stabilities\": [1.5]}}")),
        ConfigError);
    // qos_hetero needs a multiple of 4 cores.
    EXPECT_THROW(
        validateScenario(parse_only(
            "{\"name\": \"x\", \"kind\": \"qos_hetero\","
            " \"qos\": {\"cores\": 6}}")),
        ConfigError);
    // Systems the scenario would build but System cannot: each used
    // to pass validation and then abort the whole `pvsim run`.
    const std::pair<const char *, const char *> unbuildable[] = {
        {"{\"name\": \"x\", \"kind\": \"timed\", \"system\": {\"btb\":"
         " {\"mode\": \"virtualized\", \"assoc\": 64}}}",
         "system.btb: "},
        {"{\"name\": \"x\", \"kind\": \"functional\", \"system\":"
         " {\"prefetch\": \"sms_virtualized\","
         " \"pht_geometry\": {\"num_sets\": 1024, \"assoc\": 40}}}",
         "system.pht_geometry: "},
        {"{\"name\": \"x\", \"kind\": \"fig9\", \"fig9\": {\"cores\": 0}}",
         "system.num_cores: "},
        {"{\"name\": \"x\", \"kind\": \"fig9\", \"fig9\": {\"btb_sets\": 0}}",
         "side) system.btb: "},
        {"{\"name\": \"x\", \"kind\": \"fig9\", \"fig9\": {\"btb_assoc\": 64}}",
         "virtualized side) system.btb: "},
        {"{\"name\": \"x\", \"kind\": \"qos\", \"qos\": {\"cores\": 0}}",
         "system.num_cores: "},
        {"{\"name\": \"x\", \"kind\": \"qos\","
         " \"qos\": {\"pvcache_entries\": 0}}",
         "system.pv_cache_entries: "},
        {"{\"name\": \"x\", \"kind\": \"qos_hetero\", \"qos\": {\"cores\": 0}}",
         "system.num_cores: "},
    };
    for (const auto &[doc, path] : unbuildable) {
        SCOPED_TRACE(doc);
        try {
            validateScenario(parse_only(doc));
            ADD_FAILURE() << "accepted an unbuildable system";
        } catch (const ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find(path),
                      std::string::npos)
                << e.what();
        }
    }
    // The valid spellings pass.
    validateScenario(parse_only(
        "{\"name\": \"x\", \"kind\": \"fig9\","
        " \"fig9\": {\"edge_stabilities\": [-1.0, 0.0, 1.0]}}"));
    validateScenario(parse_only(
        "{\"name\": \"x\", \"kind\": \"fig9\","
        " \"fig9\": {\"btb_assoc\": 4}}"));
    validateScenario(parse_only(
        "{\"name\": \"x\", \"kind\": \"qos_hetero\","
        " \"qos\": {\"cores\": 8}}"));
}

TEST(ScenarioValidateTest, RejectsAVirtEngineSetWiderThanALine)
{
    // The committed heterogeneous-tenant machine with its AGT
    // aggressor at 8 ways: 8 x 70-bit entries need 560 bits of a
    // 512-bit line, which used to pass validation and then panic
    // in the codec when the run built the adapter.
    Scenario s = loadScenarioFile(scenariosDir() +
                                  "/timed-hetero-tenants.json");
    ASSERT_EQ(s.system.virtEngines.size(), 2u);
    ASSERT_EQ(s.system.virtEngines[1].kind, VirtEngineKind::Agt);
    s.system.virtEngines[1].assoc = 8;
    try {
        validateScenario(s);
        FAIL() << "an 8-way AGT set must not fit a line";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("system.virt_engines[1]"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ScenarioValidateTest, RejectsUnknownWorkloadPresets)
{
    // Each used to pass validation and then end the whole `pvsim
    // run` in workloadPreset()'s fatal error.
    const std::pair<const char *, const char *> unknown[] = {
        {"{\"name\": \"x\", \"kind\": \"timed\","
         " \"system\": {\"workload\": \"nope\"}}",
         "x: system.workload: unknown workload preset \"nope\""},
        {"{\"name\": \"x\", \"kind\": \"functional\","
         " \"system\": {\"workload_mix\": [\"apache\", \"nope\"]}}",
         "x: system.workload_mix[1]: unknown workload preset"},
        {"{\"name\": \"x\", \"kind\": \"fig9\", \"fig9\": {\"mixes\":"
         " [\"web\", {\"name\": \"m\", \"workloads\": [\"db2\", \"nope\"]}]}}",
         "x: fig9 (mix \"m\", dedicated side) system.workload_mix[1]: "
         "unknown workload preset"},
    };
    for (const auto &[doc, path] : unknown) {
        SCOPED_TRACE(doc);
        try {
            validateScenario(parseScenario(doc));
            ADD_FAILURE() << "accepted an unknown workload preset";
        } catch (const ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find(path),
                      std::string::npos)
                << e.what();
        }
    }
    // Every exported name is one workloadPreset() builds.
    for (const std::string &name : workloadPresetNames())
        EXPECT_EQ(workloadPreset(name).name, name);
    validateScenario(parseScenario(
        "{\"name\": \"x\", \"kind\": \"timed\","
        " \"system\": {\"workload_mix\": [\"uniform\", \"qry17\"]}}"));
}

TEST(ScenarioValidateTest, QosHeteroRefusesSettings)
{
    // The heterogeneous matrix runs fixed per-cluster contracts, so
    // a settings list there would be silently ignored.
    try {
        validateScenario(parseScenario(
            "{\"name\": \"x\", \"kind\": \"qos_hetero\","
            " \"qos\": {\"cores\": 8, \"settings\": [\"2:1\"]}}"));
        FAIL() << "qos_hetero accepted qos.settings";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("x: qos.settings: "),
                  std::string::npos)
            << e.what();
    }
    // The same list on kind "qos" is the sweep's input.
    validateScenario(parseScenario(
        "{\"name\": \"x\", \"kind\": \"qos\","
        " \"qos\": {\"cores\": 8, \"settings\": [\"2:1\"]}}"));
}

TEST(ScenarioValidateTest, ScenarioCoresTracksTheRunningSection)
{
    Scenario s;
    s.kind = "timed";
    s.system.numCores = 3;
    s.fig9.numCores = 7;
    s.qos.numCores = 9;
    EXPECT_EQ(scenarioCores(s), 3);
    s.kind = "fig9";
    EXPECT_EQ(scenarioCores(s), 7);
    s.kind = "qos";
    EXPECT_EQ(scenarioCores(s), 9);
    s.kind = "qos_hetero";
    EXPECT_EQ(scenarioCores(s), 9);
}

// ---- Keys of removed mechanisms ------------------------------------------

namespace {

/** Parsing `section` with `key` set must fail naming the key. */
void
expectKeyRefused(const std::string &section, const std::string &key)
{
    SCOPED_TRACE(section + "." + key);
    const std::string doc = "{\"name\": \"x\", \"kind\": \"timed\", \"" +
                            section + "\": {\"" + key + "\": 1}}";
    try {
        parseScenario(doc);
        FAIL() << "retired key accepted";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("unknown key \"" + key),
                  std::string::npos)
            << e.what();
    }
}

/** The quantum-barrier timing path's knobs, then the PVCache stride
 *  prefetcher's depth. */
const char *const kRetiredKeys[] = {
    "timing_shards", "sync_quantum", "l2_bank_domains", "dram_lanes",
    "drain_overlap", "pv_prefetch",
};

} // namespace

TEST(ScenarioRetiredKeyTest, SystemRefusesTheRetiredKeys)
{
    for (const char *key : kRetiredKeys)
        expectKeyRefused("system", key);
}

TEST(ScenarioRetiredKeyTest, Fig9RefusesTheRetiredKeys)
{
    for (const char *key : kRetiredKeys)
        expectKeyRefused("fig9", key);
}

TEST(ScenarioRetiredKeyTest, QosRefusesTheRetiredKeys)
{
    for (const char *key : kRetiredKeys)
        expectKeyRefused("qos", key);
}

TEST(ScenarioValidateTest, JobsBookkeepingHonorsPresetDefaults)
{
    // Empty mixes/settings mean "all presets" — the shared helpers
    // must agree with the explicit preset lists on that.
    Fig9Options f;
    f.batches = 1;
    unsigned with_presets = fig9JobsEffective(f);
    f.mixes = presetMixes();
    EXPECT_EQ(fig9JobsEffective(f), with_presets);

    QosOptions q;
    q.batches = 1;
    unsigned with_settings = qosJobsEffective(q);
    q.settings = presetQosSettings();
    EXPECT_EQ(qosJobsEffective(q), with_settings);
}
