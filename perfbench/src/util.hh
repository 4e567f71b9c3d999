/**
 * @file
 * Helpers of the traq benchmark program: clocks, a seeded generator,
 * order statistics, Wilson intervals, the DEM-based expectations the
 * correctness checks compare against, span tracing, and a flat JSON
 * result record.  Nothing here calls into the code paths the checks
 * are meant to verify, except buildDem, whose output is read only.
 */

#ifndef TRAQ_PERFBENCH_UTIL_HH
#define TRAQ_PERFBENCH_UTIL_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/circuit.hh"
#include "src/sim/dem.hh"

namespace perfbench {

/** CLOCK_MONOTONIC in seconds; the same clock as Python's
 *  time.monotonic(), so run.py can time a child from its spawn. */
double monoNow();

/** splitmix64: the benchmark's own seeded generator. */
class SplitMix
{
  public:
    explicit SplitMix(std::uint64_t seed) : s_(seed) {}
    std::uint64_t next();
    /** Uniform in [0, 1). */
    double uniform();
    /** Uniform in [lo, hi). */
    double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
    /** Uniform integer in [0, n). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

  private:
    std::uint64_t s_;
};

/** Mix a workload seed with a salt into a derived 64-bit seed. */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t salt);

/**
 * Quantile q in [0, 1] with linear interpolation between order
 * statistics (the "inclusive" definition: q=0 is the minimum, q=1
 * the maximum).  Empty input gives 0.
 */
double quantile(std::vector<double> values, double q);

struct Interval
{
    double lo = 0.0;
    double hi = 0.0;
};

/** Wilson score interval for hits / n at z standard deviations. */
Interval wilson(std::uint64_t hits, std::uint64_t n, double z);

/**
 * Expected detection events per shot from a detector error model,
 * treating its mechanisms as independent: detector d fires with
 * probability 1/2 (1 - prod over mechanisms m touching d of
 * (1 - 2 p_m)).  `variance` is sum_m p_m (1 - p_m) |D_m|^2, an upper
 * estimate of the per-shot variance used to size the tolerance.
 */
struct DefectExpectation
{
    double mean = 0.0;
    double variance = 0.0;
};
DefectExpectation expectedDefects(const traq::sim::DetectorErrorModel &dem);

/** Probability that at least one HERALDED_ERASE target of `circuit`
 *  fires in a shot: 1 - prod (1 - arg) over every target. */
double heraldProbability(const traq::sim::Circuit &circuit);

/** 64-bit FNV-1a over bytes. */
std::uint64_t fnv1a(const std::string &bytes);

/**
 * Span recorder for the traced run.  One thread; spans nest through
 * an explicit stack.  Every span carries the id of the shot batch or
 * request it belongs to.  When disabled, begin/end do nothing, so the
 * same replay code runs untraced for the overhead comparison.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name = "";
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        std::int32_t parent = -1;
        std::uint64_t group = 0;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }
    std::int32_t begin(const char *name, std::uint64_t group);
    void end(std::int32_t span);
    const std::vector<Span> &spans() const { return spans_; }

    /** Self time (span minus its direct children) summed per layer,
     *  the layer being the span name up to its first '.'. */
    std::vector<std::pair<std::string, double>> layerSelfSeconds() const;
    /** Total duration of every span with exactly this name. */
    double totalSeconds(const char *name) const;
    /** Write the spans as Chrome trace-event JSON. */
    void writeChrome(const std::string &path) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<std::int32_t> stack_;
};

/** RAII span; a no-op on a disabled tracer. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name, std::uint64_t group)
        : t_(t), id_(t.enabled() ? t.begin(name, group) : -1)
    {}
    ~Scope()
    {
        if (id_ >= 0)
            t_.end(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t_;
    std::int32_t id_;
};

/**
 * Tracing overhead: run `pass` untraced and traced, alternating, twice
 * each, calling `prepare` (untimed) before every pass so each starts
 * from the same state.  `traced` keeps the spans of the last traced
 * pass.  Returns the faster traced pass over the faster untraced pass,
 * minus one; `untracedS` / `tracedS` receive those two times.
 */
template <class Prepare, class Pass>
double
measureOverhead(Tracer &traced, Prepare &&prepare, Pass &&pass,
                double &untracedS, double &tracedS)
{
    untracedS = tracedS = 1e300;
    for (int rep = 0; rep < 2; ++rep) {
        Tracer off(false);
        prepare();
        double t0 = monoNow();
        pass(off);
        untracedS = std::min(untracedS, monoNow() - t0);
        traced = Tracer(true);
        prepare();
        t0 = monoNow();
        pass(traced);
        tracedS = std::min(tracedS, monoNow() - t0);
    }
    return tracedS / untracedS - 1.0;
}

/** Flat JSON object builder: numbers, booleans, strings. */
class Record
{
  public:
    void num(const std::string &key, double v);
    void count(const std::string &key, std::uint64_t v);
    void flag(const std::string &key, bool v);
    void str(const std::string &key, const std::string &v);
    /** Embed an already-serialized JSON value. */
    void raw(const std::string &key, const std::string &json);
    std::string json() const;

  private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

/**
 * Latency figures from per-operation latencies (ms) grouped in
 * consecutive windows.  `metrics` gets latency_p50_ms over all
 * samples.  `info` gets the sample count and, as the median over
 * windows of each window's percentile, latency_p90_ms and
 * latency_p99_ms where every window holds enough samples for ten to
 * lie beyond the percentile (100 and 1000).  The tail percentiles are
 * not gated metrics: on a shared host their run-to-run spread is as
 * wide as the largest bound.
 */
void addLatency(Record &metrics, Record &info,
                const std::vector<std::vector<double>> &windows);

/** JSON array of numbers. */
std::string numbers(const std::vector<double> &values);

/** JSON string literal with escapes. */
std::string quote(const std::string &s);

/** Peak resident set in MB: this process plus its largest waited-for
 *  descendant (getrusage semantics). */
double peakRssMb();

/** Outcome of one correctness check. */
struct Check
{
    std::string name;
    bool ok = false;
    std::string detail;
};

/** Print {"setup_s": seconds}, the result of a setup-mode run. */
void emitSetup(double seconds);

/** Print a run's or traced run's result as the last stdout line:
 *  {"attempted", "failed", "metrics", "checks", "resolved", "info"}. */
void emitResult(std::uint64_t attempted, std::uint64_t failed,
                const Record &metrics, const std::vector<Check> &checks,
                const std::string &resolvedJson, const Record &info);

/** Add each layer's self time as "<layer>.self_s" and write the spans
 *  to `path` as Chrome trace events. */
void finishTrace(Record &metrics, const Tracer &t, const std::string &path);

} // namespace perfbench

#endif // TRAQ_PERFBENCH_UTIL_HH
