/**
 * @file
 * Host timing for the benchmark: the clock, sample quantiles, and the
 * in-memory span recorder of the traced pass. A span is one timed
 * call into a simulator layer, recorded from outside the simulator:
 * name, start, end, the span that enclosed it and the id of the
 * workload run it belongs to. Spans stay in memory until the
 * benchmark writes them out at the end.
 */

#ifndef PVBENCH_TIMING_HH
#define PVBENCH_TIMING_HH

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace pvbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Quantile q of v at the cut points of Python's
 *  statistics.quantiles (method "exclusive"), clamped to the range
 *  of the samples. */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    if (n == 1)
        return v[0];
    const double pos = std::clamp(q * double(n + 1), 1.0, double(n));
    const size_t j = std::min(size_t(pos), n - 1);
    return v[j - 1] + (pos - double(j)) * (v[j] - v[j - 1]);
}

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** One recorded interval. */
struct Span {
    const char *name = "";
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1; ///< index of the enclosing span, -1 for a root
    unsigned run = 0;

    double seconds() const { return secondsBetween(start, end); }
};

/**
 * Thread-safe span store. Span names must be string literals: only
 * the pointer is kept.
 */
class Tracer
{
  public:
    /** Record a span whose end is not known yet; returns its id. */
    int
    open(const char *name, Clock::time_point start, int parent,
         unsigned run)
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back({name, start, start, parent, run});
        return int(spans_.size() - 1);
    }

    void
    close(int id, Clock::time_point end)
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans_.at(size_t(id)).end = end;
    }

    int
    record(const char *name, Clock::time_point start,
           Clock::time_point end, int parent, unsigned run)
    {
        int id = open(name, start, parent, run);
        close(id, end);
        return id;
    }

    /** Copy of every span (call after all recording threads end). */
    std::vector<Span>
    spans() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return spans_;
    }

  private:
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** Per-run totals of one span name: duration and self time. */
struct SpanTotals {
    double seconds = 0.0;
    double selfSeconds = 0.0; ///< minus the time its children cover
};

/**
 * Sum durations and self times by span name and run id. Children of
 * one span never overlap in time except under the sweep's worker
 * pool, whose per-System spans all hang off the pool span; for that
 * span the self time is clamped at zero.
 */
inline std::map<std::string, std::map<unsigned, SpanTotals>>
spanTotals(const std::vector<Span> &spans)
{
    std::vector<double> childSeconds(spans.size(), 0.0);
    for (const Span &s : spans) {
        if (s.parent >= 0)
            childSeconds[size_t(s.parent)] += s.seconds();
    }
    std::map<std::string, std::map<unsigned, SpanTotals>> out;
    for (size_t i = 0; i < spans.size(); ++i) {
        SpanTotals &t = out[spans[i].name][spans[i].run];
        double self = spans[i].seconds() - childSeconds[i];
        t.seconds += spans[i].seconds();
        t.selfSeconds += self > 0.0 ? self : 0.0;
    }
    return out;
}

/** Write spans as a JSON array, times in ns since the first span. */
inline void
writeSpansJson(const std::vector<Span> &spans, std::ostream &os)
{
    Clock::time_point epoch =
        spans.empty() ? Clock::time_point() : spans.front().start;
    for (const Span &s : spans)
        epoch = std::min(epoch, s.start);
    auto ns = [&](Clock::time_point t) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t - epoch)
            .count();
    };
    os << "[\n";
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << "  {\"id\": " << i << ", \"name\": \"" << s.name
           << "\", \"run\": " << s.run << ", \"parent\": " << s.parent
           << ", \"start_ns\": " << ns(s.start)
           << ", \"end_ns\": " << ns(s.end) << "}"
           << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    os << "]\n";
}

} // namespace pvbench

#endif // PVBENCH_TIMING_HH
