/**
 * @file
 * traq_perfbench: one mode of one benchmark workload per process.
 *
 *     traq_perfbench setup|run|trace --workload W --seed N --seconds S
 *                    [--t0 T] [--trace-out PATH] [--bin-dir DIR]
 *     traq_perfbench selftest
 *
 * perfbench/run.py drives it; see perfbench/README.md.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "src/sim/circuit.hh"
#include "src/sim/dem.hh"
#include "stream.hh"
#include "util.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: traq_perfbench setup|run|trace --workload W "
                 "--seed N --seconds S [--t0 T] [--trace-out PATH] "
                 "[--bin-dir DIR]\n"
                 "       traq_perfbench selftest\n");
    return 2;
}

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
    failures += ok ? 0 : 1;
}

bool
near(double a, double b, double tol)
{
    return std::abs(a - b) <= tol;
}

} // namespace

int
runSelfTest()
{
    expect(near(quantile({4, 1, 3, 2}, 0.5), 2.5, 1e-12), "quantile median");
    expect(near(quantile({4, 1, 3, 2}, 0.25), 1.75, 1e-12),
           "quantile interpolates");
    expect(quantile({4, 1, 3, 2}, 1.0) == 4 && quantile({7}, 0.99) == 7,
           "quantile ends");

    const Interval w0 = wilson(0, 10, 1.96);
    expect(w0.lo == 0.0 && near(w0.hi, 0.27753, 1e-4), "wilson 0/10");
    const Interval w5 = wilson(5, 10, 1.96);
    expect(near(w5.lo, 0.23659, 1e-4) && near(w5.hi, 0.76341, 1e-4),
           "wilson 5/10");

    // Two detectors: X_ERROR(0.1) on q0 spreads to q1 through the CX
    // (mechanism {D0, D1}); X_ERROR(0.2) on q1 flips D1 alone.  By
    // enumeration P(D0) = 0.1 and P(D1) = 0.1 * 0.8 + 0.9 * 0.2.
    traq::sim::Circuit c;
    c.r(0);
    c.r(1);
    c.xError(0.1, {0});
    c.cx(0, 1);
    c.xError(0.2, {1});
    c.m(0);
    c.m(1);
    c.detector({2});
    c.detector({1});
    const DefectExpectation ex = expectedDefects(traq::sim::buildDem(c));
    expect(near(ex.mean, 0.1 + 0.26, 1e-12),
           "DEM expectation on two detectors");
    expect(near(ex.variance, 0.1 * 0.9 * 4 + 0.2 * 0.8, 1e-12),
           "DEM variance estimate");

    traq::sim::Circuit h;
    h.heraldedErase(0.1, {0, 1});
    expect(near(heraldProbability(h), 1.0 - 0.9 * 0.9, 1e-12),
           "herald probability");

    const auto a = makeStream(5, 2000);
    const auto b = makeStream(5, 2000);
    const auto other = makeStream(6, 2000);
    bool same = true, differs = false, dupsOk = true;
    std::size_t dups = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        same = same && a[i].line == b[i].line && a[i].dupOf == b[i].dupOf;
        differs = differs || a[i].line != other[i].line;
        if (a[i].dupOf >= 0) {
            ++dups;
            dupsOk = dupsOk && a[i].line == a[static_cast<std::size_t>(
                                                   a[i].dupOf)].line;
        }
    }
    expect(same, "stream is a function of the seed");
    expect(differs, "another seed gives another stream");
    expect(dupsOk, "duplicates are byte-identical copies");
    expect(dups > 2000 / 10 && dups < 2000 * 3 / 10,
           "duplicate share near 1/5 + 1/100");
    expect(a[0].line == "{\"kind\":\"factoring\"}" && a[100].dupOf == 0,
           "request 0 is the paper's default factoring request");

    Tracer t(true);
    {
        Scope outer(t, "layer.outer", 1);
        Scope inner(t, "other.inner", 1);
    }
    const auto self = t.layerSelfSeconds();
    expect(self.size() == 2 && t.spans()[1].parent == 0 &&
               self[0].second >= 0 && self[1].second >= 0,
           "span nesting and self time");

    std::printf("%d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    if (argc < 2)
        return perfbench::usage();
    perfbench::Options o;
    o.mode = argv[1];
    if (o.mode == "selftest")
        return perfbench::runSelfTest();
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload")
            o.workload = value;
        else if (key == "--seed")
            o.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (key == "--seconds")
            o.seconds = std::atof(value.c_str());
        else if (key == "--t0")
            o.t0 = std::atof(value.c_str());
        else if (key == "--trace-out")
            o.traceOut = value;
        else if (key == "--bin-dir")
            o.binDir = value;
        else
            return perfbench::usage();
    }
    if (argc % 2 != 0 || o.seconds <= 0)
        return perfbench::usage();
    try {
        if (o.workload == "memory-pauli" || o.workload == "cnot-erasure" ||
            o.workload == "alpha-fit")
            return perfbench::runMonteCarloWorkload(o);
        if (o.workload == "serve-estimates")
            return perfbench::runServeWorkload(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "traq_perfbench: %s\n", e.what());
        return 1;
    }
    return perfbench::usage();
}
