/**
 * @file
 * Per-System set-up cost: host wall time to construct and to destroy
 * one System of the Figure 9 `mixed` matched pair (Table 1 machine:
 * 4 cores, 8 MB 16-way L2), the unit every paper sweep repeats.
 * Systems alternate between the dedicated and the virtualized BTB
 * side, as a sweep's jobs do. Nothing is simulated.
 *
 * The first System of the process is reported on its own ("cold"):
 * it also builds the process-wide Zipf tables that every later
 * System of the same workload shapes shares. The rest give the warm
 * per-System cost as median and quartiles.
 *
 *   system_setup        (takes no arguments)
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "harness/metrics.hh"
#include "harness/system.hh"
#include "trace/workload.hh"

using namespace pvsim;
using Clock = std::chrono::steady_clock;

namespace {

constexpr unsigned kWarmSystems = 40;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** q-quantile (0..1) of v by nearest rank; sorts v. */
double
quantile(std::vector<double> &v, double q)
{
    std::sort(v.begin(), v.end());
    return v[size_t(q * double(v.size() - 1) + 0.5)];
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1) {
        std::fprintf(stderr, "%s: takes no arguments (got '%s')\n",
                     argv[0], argv[1]);
        return 1;
    }
    WorkloadMix mixed;
    for (const WorkloadMix &m : presetMixes())
        if (m.name == "mixed")
            mixed = m;
    const Fig9Options opt;
    const SystemConfig sides[2] = {
        fig9Config(mixed, opt, BtbMode::Dedicated),
        fig9Config(mixed, opt, BtbMode::Virtualized),
    };

    std::vector<double> build, destroy;
    for (unsigned i = 0; i <= kWarmSystems; ++i) {
        const Clock::time_point t0 = Clock::now();
        auto sys = std::make_unique<System>(sides[i % 2]);
        const Clock::time_point t1 = Clock::now();
        sys.reset();
        const Clock::time_point t2 = Clock::now();
        build.push_back(msBetween(t0, t1));
        destroy.push_back(msBetween(t1, t2));
    }

    std::printf("fig9 'mixed' System (4 cores, %llu KB L2), both "
                "BTB sides\n",
                (unsigned long long)(sides[0].l2SizeBytes / 1024));
    std::printf("cold (first System): construct %.2f ms, destroy "
                "%.2f ms\n",
                build[0], destroy[0]);
    build.erase(build.begin());
    destroy.erase(destroy.begin());
    std::printf("warm (%u Systems):   construct %.2f ms [%.2f, %.2f], "
                "destroy %.2f ms [%.2f, %.2f]  (median [p25, p75])\n",
                kWarmSystems, quantile(build, 0.5),
                quantile(build, 0.25), quantile(build, 0.75),
                quantile(destroy, 0.5), quantile(destroy, 0.25),
                quantile(destroy, 0.75));
    return 0;
}
