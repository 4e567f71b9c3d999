#include "util.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <stdexcept>

#include <sys/resource.h>

#include "src/sim/gates.hh"

namespace perfbench {

namespace {

std::int64_t
nowNs()
{
    timespec ts{};
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL +
           ts.tv_nsec;
}

std::string
fmtNum(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

double
monoNow()
{
    return static_cast<double>(nowNs()) * 1e-9;
}

std::uint64_t
SplitMix::next()
{
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
SplitMix::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t salt)
{
    SplitMix m(seed ^ (salt * 0xd1b54a32d192ed03ULL));
    m.next();
    return m.next();
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

Interval
wilson(std::uint64_t hits, std::uint64_t n, double z)
{
    if (n == 0)
        return {0.0, 1.0};
    const double nn = static_cast<double>(n);
    const double p = static_cast<double>(hits) / nn;
    const double z2 = z * z;
    const double denom = 1.0 + z2 / nn;
    const double centre = (p + z2 / (2.0 * nn)) / denom;
    const double half =
        z * std::sqrt(p * (1.0 - p) / nn + z2 / (4.0 * nn * nn)) / denom;
    return {std::max(0.0, centre - half), std::min(1.0, centre + half)};
}

DefectExpectation
expectedDefects(const traq::sim::DetectorErrorModel &dem)
{
    // prod (1 - 2 p_m) per detector, then q_d = (1 - prod) / 2.
    std::vector<double> prod(dem.numDetectors, 1.0);
    DefectExpectation out;
    for (const traq::sim::ErrorMechanism &m : dem.errors) {
        for (std::uint32_t d : m.detectors)
            prod.at(d) *= 1.0 - 2.0 * m.probability;
        const double k = static_cast<double>(m.detectors.size());
        out.variance += m.probability * (1.0 - m.probability) * k * k;
    }
    for (double p : prod)
        out.mean += 0.5 * (1.0 - p);
    return out;
}

double
heraldProbability(const traq::sim::Circuit &circuit)
{
    double none = 1.0;
    for (const traq::sim::Instruction &inst : circuit.instructions())
        if (inst.gate == traq::sim::Gate::HERALDED_ERASE)
            for (std::size_t i = 0; i < inst.targets.size(); ++i)
                none *= 1.0 - inst.arg;
    return 1.0 - none;
}

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::int32_t
Tracer::begin(const char *name, std::uint64_t group)
{
    Span s;
    s.name = name;
    s.group = group;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.startNs = nowNs();
    spans_.push_back(s);
    const auto id = static_cast<std::int32_t>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
}

void
Tracer::end(std::int32_t span)
{
    spans_[static_cast<std::size_t>(span)].endNs = nowNs();
    if (!stack_.empty() && stack_.back() == span)
        stack_.pop_back();
}

std::vector<std::pair<std::string, double>>
Tracer::layerSelfSeconds() const
{
    std::vector<std::int64_t> childNs(spans_.size(), 0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            childNs[static_cast<std::size_t>(s.parent)] +=
                s.endNs - s.startNs;
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const std::string name = spans_[i].name;
        const std::string layer = name.substr(0, name.find('.'));
        self[layer] +=
            static_cast<double>(spans_[i].endNs - spans_[i].startNs -
                                childNs[i]) *
            1e-9;
    }
    return {self.begin(), self.end()};
}

double
Tracer::totalSeconds(const char *name) const
{
    const std::string want = name;
    std::int64_t ns = 0;
    for (const Span &s : spans_)
        if (want == s.name)
            ns += s.endNs - s.startNs;
    return static_cast<double>(ns) * 1e-9;
}

void
Tracer::writeChrome(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write trace file " + path);
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().startNs;
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const std::string name = s.name;
        char buf[320];
        std::snprintf(
            buf, sizeof(buf),
            "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
            "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
            "\"parent\":%d,\"id\":%llu}}%s\n",
            s.name, name.substr(0, name.find('.')).c_str(),
            static_cast<double>(s.startNs - t0) * 1e-3,
            static_cast<double>(s.endNs - s.startNs) * 1e-3, i,
            static_cast<int>(s.parent),
            static_cast<unsigned long long>(s.group),
            i + 1 < spans_.size() ? "," : "");
        out << buf;
    }
    out << "]}\n";
    if (!out)
        throw std::runtime_error("short write to trace file " + path);
}

void
Record::num(const std::string &key, double v)
{
    fields_.emplace_back(key, fmtNum(v));
}

void
Record::count(const std::string &key, std::uint64_t v)
{
    fields_.emplace_back(key, std::to_string(v));
}

void
Record::flag(const std::string &key, bool v)
{
    fields_.emplace_back(key, v ? "true" : "false");
}

void
Record::str(const std::string &key, const std::string &v)
{
    fields_.emplace_back(key, quote(v));
}

void
Record::raw(const std::string &key, const std::string &json)
{
    fields_.emplace_back(key, json);
}

std::string
Record::json() const
{
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
        if (i)
            out += ',';
        out += quote(fields_[i].first) + ':' + fields_[i].second;
    }
    return out + '}';
}

void
addLatency(Record &metrics, Record &info,
           const std::vector<std::vector<double>> &windows)
{
    std::vector<double> all, p90s, p99s;
    std::size_t smallest = windows.empty() ? 0 : windows[0].size();
    for (const std::vector<double> &w : windows) {
        all.insert(all.end(), w.begin(), w.end());
        smallest = std::min(smallest, w.size());
        p90s.push_back(quantile(w, 0.90));
        p99s.push_back(quantile(w, 0.99));
    }
    metrics.num("latency_p50_ms", quantile(all, 0.5));
    info.count("latency_samples", all.size());
    if (smallest >= 100)
        info.num("latency_p90_ms", quantile(p90s, 0.5));
    if (smallest >= 1000)
        info.num("latency_p99_ms", quantile(p99s, 0.5));
}

std::string
numbers(const std::vector<double> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i)
            out += ',';
        out += fmtNum(values[i]);
    }
    return out + ']';
}

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + '"';
}

double
peakRssMb()
{
    rusage self{};
    rusage children{};
    ::getrusage(RUSAGE_SELF, &self);
    ::getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(self.ru_maxrss + children.ru_maxrss) /
           1024.0;
}

void
emitSetup(double seconds)
{
    Record r;
    r.num("setup_s", seconds);
    std::printf("%s\n", r.json().c_str());
    std::fflush(stdout);
}

void
emitResult(std::uint64_t attempted, std::uint64_t failed,
           const Record &metrics, const std::vector<Check> &checks,
           const std::string &resolvedJson, const Record &info)
{
    std::string list = "[";
    for (std::size_t i = 0; i < checks.size(); ++i) {
        Record r;
        r.str("name", checks[i].name);
        r.flag("ok", checks[i].ok);
        r.str("detail", checks[i].detail);
        if (i)
            list += ',';
        list += r.json();
    }
    Record out;
    out.count("attempted", attempted);
    out.count("failed", failed);
    out.raw("metrics", metrics.json());
    out.raw("checks", list + ']');
    out.raw("resolved", resolvedJson);
    out.raw("info", info.json());
    std::printf("%s\n", out.json().c_str());
    std::fflush(stdout);
}

void
finishTrace(Record &metrics, const Tracer &t, const std::string &path)
{
    for (const auto &[layer, s] : t.layerSelfSeconds())
        metrics.num(layer + ".self_s", s);
    t.writeChrome(path);
}

} // namespace perfbench
