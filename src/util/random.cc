#include "util/random.hh"

#include <cassert>
#include <cstring>
#include <map>
#include <mutex>
#include <utility>

namespace pvsim {

namespace {

/** 1 / (i+1)^alpha summed into a CDF, then normalized. */
std::vector<double>
buildZipfCdf(size_t n, double alpha)
{
    std::vector<double> cdf(n);
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
        // std::pow is not constexpr-friendly everywhere; alpha 0 is
        // the uniform case and skips the call.
        const double p =
            alpha == 0.0 ? 1.0 : __builtin_pow(double(i + 1), alpha);
        sum += 1.0 / p;
        cdf[i] = sum;
    }
    for (auto &c : cdf)
        c /= sum;
    return cdf;
}

} // anonymous namespace

std::shared_ptr<const std::vector<double>>
zipfCdf(size_t n, double alpha)
{
    assert(n > 0);
    // Keyed by alpha's bit pattern: the same double always maps to
    // the same table, with no floating-point comparison involved.
    uint64_t alpha_bits;
    std::memcpy(&alpha_bits, &alpha, sizeof(alpha));
    static std::mutex mutex;
    static std::map<std::pair<size_t, uint64_t>,
                    std::shared_ptr<const std::vector<double>>>
        memo;
    std::lock_guard<std::mutex> lock(mutex);
    auto &table = memo[{n, alpha_bits}];
    if (!table)
        table = std::make_shared<const std::vector<double>>(
            buildZipfCdf(n, alpha));
    return table;
}

} // namespace pvsim
