#include "stream.hh"

#include <cmath>
#include <cstdio>
#include <utility>

#include "util.hh"

namespace perfbench {

namespace {

std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
requestLine(const std::string &kind,
            const std::vector<std::pair<const char *, double>> &params)
{
    std::string out = "{\"kind\":\"" + kind + "\",\"params\":{";
    for (std::size_t i = 0; i < params.size(); ++i) {
        if (i)
            out += ',';
        out += std::string("\"") + params[i].first + "\":" +
               number(params[i].second);
    }
    return out + "}}";
}

std::string
freshLine(const std::string &kind, SplitMix &rng)
{
    if (kind == "factoring")
        return requestLine(kind, {{"atom.pPhys", rng.uniform(0.8e-3, 1.2e-3)},
                                  {"cczErrorBudget", rng.uniform(0.02, 0.08)}});
    if (kind == "chemistry")
        return requestLine(kind, {{"lambdaHam", rng.uniform(1000.0, 2000.0)},
                                  {"energyError", rng.uniform(1.2e-3, 2.0e-3)}});
    if (kind == "gidney-ekera")
        return requestLine(kind, {{"tReaction", rng.uniform(5e-6, 2e-5)},
                                  {"tCycle", rng.uniform(0.5e-6, 2e-6)}});
    if (kind == "qldpc-storage")
        return requestLine(kind,
                           {{"compressionFactor", rng.uniform(4.0, 16.0)},
                            {"eligibleFraction", rng.uniform(0.5, 0.95)}});
    if (kind == "factory-design")
        return requestLine(
            kind, {{"targetCczError", std::pow(10.0, rng.uniform(-12.0, -9.0))}});
    return requestLine(
        kind, {{"distance", 21.0 + 2.0 * static_cast<double>(rng.below(6))},
               {"sePeriod", rng.uniform(1e-3, 8e-3)}});
}

} // namespace

std::vector<StreamItem>
makeStream(std::uint64_t seed, std::size_t n)
{
    SplitMix rng(deriveSeed(seed, 7));
    std::vector<StreamItem> out;
    out.reserve(n);
    std::vector<std::size_t> fresh; // indices of non-default originals
    for (std::size_t i = 0; i < n; ++i) {
        StreamItem item;
        if (i % 100 == 0) {
            item.line = "{\"kind\":\"factoring\"}";
            if (i > 0)
                item.dupOf = 0;
        } else if (rng.uniform() < 0.2 && !fresh.empty()) {
            const std::size_t src = fresh[rng.below(fresh.size())];
            item = out[src];
            item.dupOf = static_cast<std::int64_t>(src);
        } else {
            item.line = freshLine(kKinds[rng.below(std::size(kKinds))], rng);
            fresh.push_back(i);
        }
        out.push_back(std::move(item));
    }
    return out;
}

} // namespace perfbench
