/**
 * @file
 * The engine factory: the one translation point from a generic
 * registry entry (VirtEngineConfig) to a concrete Virt* adapter.
 * Harnesses iterate their registry and call makeEngine(); nothing
 * outside this file constructs an adapter from a config, so adding
 * a fifth engine kind is a case here plus the enum value.
 */

#include "core/virt_agt.hh"
#include "core/virt_btb.hh"
#include "core/virt_engine.hh"
#include "core/virt_pht.hh"
#include "core/virt_stride.hh"
#include "util/logging.hh"

namespace pvsim {

namespace {

VirtStrideParams
strideParams(const VirtEngineConfig &cfg)
{
    VirtStrideParams sp;
    sp.numSets = cfg.numSets;
    sp.assoc = cfg.assoc;
    sp.tagBits = cfg.tagBits;
    return sp;
}

VirtAgtParams
agtParams(const VirtEngineConfig &cfg)
{
    VirtAgtParams ap;
    ap.numSets = cfg.numSets;
    ap.assoc = cfg.assoc;
    ap.tagBits = cfg.tagBits;
    return ap;
}

} // anonymous namespace

std::unique_ptr<VirtEngine>
makeEngine(VirtEngineKind kind, const VirtEngineConfig &cfg,
           PvProxy &proxy)
{
    switch (kind) {
      case VirtEngineKind::Pht:
        return std::make_unique<VirtualizedPht>(
            proxy, cfg.scopeName(), cfg.numSets, cfg.assoc, cfg.qos);
      case VirtEngineKind::Btb:
        return std::make_unique<VirtualizedBtb>(
            proxy, cfg.scopeName(), cfg.numSets, cfg.assoc,
            cfg.tagBits, cfg.qos);
      case VirtEngineKind::Stride:
        return std::make_unique<VirtualizedStride>(
            proxy, cfg.scopeName(), strideParams(cfg), cfg.qos);
      case VirtEngineKind::Agt:
        return std::make_unique<VirtualizedAgt>(
            proxy, cfg.scopeName(), agtParams(cfg), cfg.qos);
    }
    pv_assert(false, "unknown VirtEngineKind %d", int(kind));
    return nullptr;
}

PvSetGeometry
engineGeometry(const VirtEngineConfig &cfg)
{
    switch (cfg.kind) {
      case VirtEngineKind::Pht:
        return VirtualizedPht::geometry(cfg.numSets, cfg.assoc);
      case VirtEngineKind::Btb:
        return VirtualizedBtb::geometry(cfg.assoc, cfg.tagBits);
      case VirtEngineKind::Stride:
        return VirtualizedStride::geometry(strideParams(cfg));
      case VirtEngineKind::Agt:
        return VirtualizedAgt::geometry(agtParams(cfg));
    }
    pv_assert(false, "unknown VirtEngineKind %d", int(cfg.kind));
    return {};
}

} // namespace pvsim
