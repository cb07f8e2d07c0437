/**
 * @file
 * Layer-isolated replays (see replay.hh).
 */

#include "replay.hh"

#include <algorithm>
#include <array>
#include <memory>

#include "core/virt_engine.hh"
#include "cpu/trace_core.hh"
#include "mem/addr_map.hh"
#include "mem/cache.hh"
#include "prefetch/pht.hh"
#include "trace/synthetic_gen.hh"
#include "timing.hh"

namespace pvbench {

using namespace pvsim;

namespace {

/** Keeps the replayed work observable to the optimizer. */
volatile uint64_t replaySink = 0;

/** Memory below the standalone L1: every miss fills, nothing kept. */
class NullMemory final : public MemDevice
{
  public:
    bool recvRequest(PacketPtr) override { return false; }

    void
    functionalAccess(Packet &pkt) override
    {
        if (cmdNeedsResponse(pkt.cmd)) {
            pkt.grantsWritable = true;
            pkt.makeResponse();
        }
    }

    std::string deviceName() const override { return "replay.mem"; }
};

/** Memory below the standalone PvProxy: keeps written-back lines so
 *  a refetched set decodes to what the proxy evicted. */
class LineStore final : public MemDevice
{
  public:
    LineStore(Addr base, uint64_t bytes)
        : base_(base), lines_(bytes / kBlockBytes)
    {}

    bool recvRequest(PacketPtr) override { return false; }

    void
    functionalAccess(Packet &pkt) override
    {
        Packet::Data &line =
            lines_.at((pkt.addr - base_) / kBlockBytes);
        if (pkt.isWriteback()) {
            if (pkt.hasData())
                line = *pkt.data;
            return;
        }
        if (!cmdNeedsResponse(pkt.cmd))
            return;
        pkt.setData(line.data());
        pkt.grantsWritable = true;
        pkt.makeResponse();
    }

    std::string deviceName() const override { return "replay.pvmem"; }

  private:
    Addr base_;
    std::vector<Packet::Data> lines_;
};

/** One core's generator parameters, exactly as System builds them. */
WorkloadParams
coreParams(const SystemConfig &cfg, int core)
{
    WorkloadParams wp = workloadPreset(cfg.workloadFor(core));
    wp.seed += cfg.seedOffset;
    cfg.branchProfile.applyTo(wp);
    return wp;
}

/** Fill `out` from a fresh generator; returns host seconds spent in
 *  nextBatch, in the core's own batch size. */
double
generate(const SystemConfig &cfg, int core,
         std::vector<TraceRecord> &out)
{
    SyntheticWorkload gen(coreParams(cfg, core), core);
    Clock::time_point t0 = Clock::now();
    size_t got = 0;
    while (got < out.size()) {
        size_t want = std::min(TraceCore::kBatchRecords,
                               out.size() - got);
        got += gen.nextBatch(out.data() + got, want);
    }
    return secondsBetween(t0, Clock::now());
}

/** Host seconds of feeding records [half, end) into an L1D warmed by
 *  records [0, half). */
double
replayL1(const SystemConfig &cfg, int core,
         const std::vector<TraceRecord> &records)
{
    SimContext ctx(SimMode::Functional);
    CacheParams p;
    p.name = "replay.l1d";
    p.sizeBytes = cfg.l1SizeBytes;
    p.assoc = cfg.l1Assoc;
    p.numMshrs = cfg.l1Mshrs;
    NullMemory mem;
    Cache l1(ctx, p);
    l1.setMemSide(&mem);
    auto access = [&](const TraceRecord &r) {
        Packet pkt(r.isLoad() ? MemCmd::ReadReq : MemCmd::WriteReq,
                   r.addr, core);
        pkt.pc = r.pc;
        l1.functionalAccess(pkt);
    };
    size_t half = records.size() / 2;
    for (size_t i = 0; i < half; ++i)
        access(records[i]);
    Clock::time_point t0 = Clock::now();
    for (size_t i = half; i < records.size(); ++i)
        access(records[i]);
    return secondsBetween(t0, Clock::now());
}

/** One proxy operation of the replayed stream. */
struct PvOp {
    unsigned engine = 0;
    uint64_t key = 0;
};

/**
 * The operations a core's engines would issue on its stream: a BTB
 * is consulted at every taken branch (key pc >> 2, as the BTB keys
 * it), every other engine at every data reference (the SMS trigger
 * key of the reference's pc and region offset).
 */
std::vector<PvOp>
pvOps(const std::vector<VirtEngineConfig> &registry,
      const std::vector<TraceRecord> &records)
{
    std::vector<PvOp> ops;
    for (const TraceRecord &r : records) {
        for (unsigned e = 0; e < registry.size(); ++e) {
            if (registry[e].kind == VirtEngineKind::Btb) {
                if (isTakenEdge(r.edge))
                    ops.push_back({e, r.pc >> 2});
            } else {
                unsigned offset = unsigned(
                    (r.addr / kBlockBytes) %
                    SyntheticWorkload::kRegionBlocks);
                ops.push_back({e, makePhtKey(r.pc, offset)});
            }
        }
    }
    return ops;
}

/** Host seconds of each PV-layer timing for one core's stream. */
struct PvTimes {
    double access = 0.0;
    uint64_t accesses = 0;
    double decode = 0.0;
    double encode = 0.0;
    uint64_t lines = 0;
};

/**
 * Warm a standalone proxy with the engines' own read-modify-writes on
 * the first half of the stream, then time bare PvProxy::access calls
 * on the second half, and codec decode/encode of the lines those
 * calls touched.
 */
PvTimes
replayPv(const SystemConfig &cfg, int core,
         const std::vector<TraceRecord> &records, uint64_t &sink)
{
    PvTimes t;
    const std::vector<VirtEngineConfig> registry =
        cfg.engineRegistry();
    if (registry.empty())
        return t;
    SimContext ctx(SimMode::Functional);
    AddrMap map(cfg.memBytes, cfg.numCores, cfg.pvBytesPerCore);
    PvProxyParams pp;
    pp.name = "replay.pvproxy";
    pp.pvCacheEntries = cfg.pvCacheEntries;
    pp.victimEntries = cfg.victimEntries;
    pp.usedBitsPerLine = 0;
    LineStore mem(map.pvStart(core), cfg.pvBytesPerCore);
    PvProxy proxy(ctx, pp, map.pvStart(core), cfg.pvBytesPerCore);
    proxy.setMemSide(&mem);
    std::vector<std::unique_ptr<VirtEngine>> engines;
    for (const VirtEngineConfig &ec : registry)
        engines.push_back(makeEngine(ec.kind, ec, proxy));

    const std::vector<PvOp> ops = pvOps(registry, records);
    const size_t half = ops.size() / 2;
    for (size_t i = 0; i < half; ++i) {
        VirtualizedAssocTable &table = engines[ops[i].engine]->table();
        const uint64_t payload_mask =
            mask(int(table.codec().payloadBits()));
        table.mutate(ops[i].key, [payload_mask](bool, uint64_t old) {
            uint64_t next = (old + 1) & payload_mask;
            return next ? next : uint64_t(1);
        });
    }

    auto request = [&](size_t i, PvSetOp op) {
        VirtualizedAssocTable &table = engines[ops[i].engine]->table();
        return PvRequest{table.tableId(), table.setOf(ops[i].key),
                         PvReqClass::Demand, std::move(op)};
    };
    Clock::time_point t0 = Clock::now();
    for (size_t i = half; i < ops.size(); ++i) {
        proxy.access(request(i, [&sink](PvLineView v) {
            if (v.bytes)
                sink += v.bytes[0];
        }));
    }
    t.access = secondsBetween(t0, Clock::now());
    t.accesses = ops.size() - half;

    // The lines the timed calls saw, with the codec of their owner.
    std::vector<std::array<uint8_t, kBlockBytes>> lines;
    std::vector<const PvSetCodec *> codecs;
    for (size_t i = half; i < ops.size(); ++i) {
        const PvSetCodec *codec = &engines[ops[i].engine]->codec();
        auto snapshot = [&lines, &codecs, codec](PvLineView v) {
            if (!v.bytes)
                return;
            lines.emplace_back();
            std::copy(v.bytes, v.bytes + kBlockBytes,
                      lines.back().begin());
            codecs.push_back(codec);
        };
        proxy.access(request(i, snapshot));
    }
    std::vector<PvSet> sets(lines.size());
    t0 = Clock::now();
    for (size_t i = 0; i < lines.size(); ++i)
        sets[i] = codecs[i]->decode(lines[i].data());
    t.decode = secondsBetween(t0, Clock::now());
    std::array<uint8_t, kBlockBytes> out{};
    t0 = Clock::now();
    for (size_t i = 0; i < sets.size(); ++i) {
        codecs[i]->encode(sets[i], out.data());
        sink += out[i % kBlockBytes];
    }
    t.encode = secondsBetween(t0, Clock::now());
    t.lines = lines.size();
    for (const PvSet &s : sets)
        sink += s.ways[0].tag;
    return t;
}

} // anonymous namespace

LayerReplay
replayLayers(const std::vector<SystemConfig> &cfgs,
             uint64_t records_per_core, unsigned repeats)
{
    std::vector<double> trace_ns, l1_ns, pv_ns, decode_ns, encode_ns;
    uint64_t sink = 0;
    for (unsigned rep = 0; rep < repeats; ++rep) {
        double gen_s = 0.0, l1_s = 0.0;
        uint64_t generated = 0, l1_accesses = 0;
        PvTimes pv;
        for (const SystemConfig &cfg : cfgs) {
            for (int c = 0; c < cfg.numCores; ++c) {
                std::vector<TraceRecord> records(records_per_core);
                gen_s += generate(cfg, c, records);
                generated += records.size();
                l1_s += replayL1(cfg, c, records);
                l1_accesses += records.size() - records.size() / 2;
                PvTimes t = replayPv(cfg, c, records, sink);
                pv.access += t.access;
                pv.accesses += t.accesses;
                pv.decode += t.decode;
                pv.encode += t.encode;
                pv.lines += t.lines;
            }
        }
        auto ns = [](double s, uint64_t n) {
            return n ? 1e9 * s / double(n) : 0.0;
        };
        trace_ns.push_back(ns(gen_s, generated));
        l1_ns.push_back(ns(l1_s, l1_accesses));
        pv_ns.push_back(ns(pv.access, pv.accesses));
        decode_ns.push_back(ns(pv.decode, pv.lines));
        encode_ns.push_back(ns(pv.encode, pv.lines));
    }
    replaySink = sink;
    LayerReplay r;
    r.traceNsPerRecord = median(trace_ns);
    r.l1NsPerAccess = median(l1_ns);
    r.pvNsPerAccess = median(pv_ns);
    r.codecNsPerDecode = median(decode_ns);
    r.codecNsPerEncode = median(encode_ns);
    return r;
}

} // namespace pvbench
