/**
 * @file
 * The serve-estimates workload: a seeded stream of closed-form
 * estimate requests sent through traq_dispatch (two traq_serve
 * workers) in a closed loop with a fixed number of requests in
 * flight.  The traced mode replays a prefix of the same stream on one
 * thread through parseRequestLine, Validator::validate, the
 * estimators, wire tagging, an in-process JobService and an
 * in-process Dispatcher.
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "src/estimator/estimator.hh"
#include "src/service/dispatcher.hh"
#include "src/service/job_service.hh"
#include "src/service/validation.hh"
#include "src/service/wire.hh"
#include "stream.hh"
#include "util.hh"
#include "workloads.hh"

extern char **environ;

namespace perfbench {

namespace {

using namespace traq;

constexpr unsigned kWorkers = 2;
constexpr unsigned kServeThreads = 2;
/** Requests in flight: the closed loop's client count (<= nproc). */
constexpr std::size_t kInflight = 4;
/** Requests per second the timed stream is sized by. */
constexpr double kNominalRate = 20000.0;
/** Requests per second of --seconds replayed by the traced run. */
constexpr double kTraceRate = 600.0;
/** Index ranges the throughput and tail-latency medians are taken over. */
constexpr std::size_t kWindows = 10;
/** Every kSampleEvery-th request is re-estimated in-process. */
constexpr std::size_t kSampleEvery = 50;

/** traq_dispatch as a child process with piped stdin/stdout/stderr. */
class DispatchProcess
{
  public:
    explicit DispatchProcess(const std::string &binDir)
    {
        int in[2], out[2], err[2];
        if (::pipe2(in, O_CLOEXEC) || ::pipe2(out, O_CLOEXEC) ||
            ::pipe2(err, O_CLOEXEC))
            throw std::runtime_error("pipe2 failed");
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_adddup2(&fa, in[0], 0);
        posix_spawn_file_actions_adddup2(&fa, out[1], 1);
        posix_spawn_file_actions_adddup2(&fa, err[1], 2);
        const std::string path = binDir + "/traq_dispatch";
        const std::string serve = binDir + "/traq_serve";
        const std::string workers = std::to_string(kWorkers);
        const std::string threads = std::to_string(kServeThreads);
        std::vector<char *> argv = {
            const_cast<char *>(path.c_str()),
            const_cast<char *>("--workers"),
            const_cast<char *>(workers.c_str()),
            const_cast<char *>("--threads"),
            const_cast<char *>(threads.c_str()),
            const_cast<char *>("--serve"),
            const_cast<char *>(serve.c_str()),
            nullptr};
        const int rc = ::posix_spawn(&pid_, path.c_str(), &fa, nullptr,
                                     argv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        ::close(in[0]);
        ::close(out[1]);
        ::close(err[1]);
        stdinFd_ = in[1];
        errFd_ = err[0];
        out_ = ::fdopen(out[0], "r");
        if (rc != 0 || out_ == nullptr)
            throw std::runtime_error("cannot start " + path + ": " +
                                     std::strerror(rc));
    }

    ~DispatchProcess()
    {
        closeInput();
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            int status = 0;
            ::waitpid(pid_, &status, 0);
        }
        if (out_ != nullptr)
            std::fclose(out_);
        if (errFd_ >= 0)
            ::close(errFd_);
    }

    DispatchProcess(const DispatchProcess &) = delete;
    DispatchProcess &operator=(const DispatchProcess &) = delete;

    void writeLine(const std::string &line)
    {
        std::string buf = line + '\n';
        std::size_t off = 0;
        while (off < buf.size()) {
            const ssize_t n =
                ::write(stdinFd_, buf.data() + off, buf.size() - off);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                throw std::runtime_error("write to traq_dispatch failed");
            off += static_cast<std::size_t>(n);
        }
    }

    /** Next stdout line without its newline; false at end of file. */
    bool readLine(std::string &line)
    {
        char *buf = nullptr;
        std::size_t cap = 0;
        const ssize_t n = ::getline(&buf, &cap, out_);
        if (n > 0)
            line.assign(buf, static_cast<std::size_t>(n) -
                                 (buf[n - 1] == '\n' ? 1 : 0));
        std::free(buf);
        return n > 0;
    }

    void closeInput()
    {
        if (stdinFd_ >= 0) {
            ::close(stdinFd_);
            stdinFd_ = -1;
        }
    }

    /** Close stdin, drain stdout and stderr, reap; returns stderr. */
    std::string finish(int &status)
    {
        closeInput();
        std::string rest;
        while (readLine(rest)) {
        }
        std::string err;
        char buf[4096];
        ssize_t n;
        while ((n = ::read(errFd_, buf, sizeof(buf))) > 0)
            err.append(buf, static_cast<std::size_t>(n));
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return err;
    }

  private:
    pid_t pid_ = -1;
    int stdinFd_ = -1;
    int errFd_ = -1;
    std::FILE *out_ = nullptr;
};

/** Index and payload of a tagged result line, parsed without the
 *  service's own wire code. */
bool
untag(const std::string &line, std::size_t &index, std::string &payload)
{
    static const std::string prefix = "{\"index\":";
    if (line.compare(0, prefix.size(), prefix) != 0)
        return false;
    std::size_t pos = prefix.size();
    std::size_t v = 0;
    const std::size_t digits0 = pos;
    while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9')
        v = v * 10 + static_cast<std::size_t>(line[pos++] - '0');
    if (pos == digits0 || pos >= line.size() || line[pos] != ',')
        return false;
    index = v;
    payload = "{" + line.substr(pos + 1);
    return true;
}

/** traq_serve thread counts from the workers' stderr summaries. */
std::string
serveThreads(const std::string &stderrText)
{
    std::string out = "[";
    std::size_t pos = 0;
    bool first = true;
    while ((pos = stderrText.find("traq_serve:", pos)) != std::string::npos) {
        const std::size_t eol = stderrText.find('\n', pos);
        const std::string line = stderrText.substr(pos, eol - pos);
        const std::size_t t = line.rfind(" threads");
        const std::size_t sp = line.rfind(' ', t - 1);
        if (t != std::string::npos && sp != std::string::npos) {
            out += (first ? "" : ",") + line.substr(sp + 1, t - sp - 1);
            first = false;
        }
        pos = eol == std::string::npos ? stderrText.size() : eol;
    }
    return out + "]";
}

Check
paperCheck(const std::string &payload)
{
    Check c;
    c.name = "paper-headline";
    double qubits = 0.0, days = 0.0;
    try {
        const est::EstimateResult r = est::resultFromJson(payload);
        qubits = r.metric("physicalQubits");
        days = r.metric("days");
    } catch (const std::exception &e) {
        c.detail = std::string("unreadable factoring payload: ") + e.what();
        return c;
    }
    c.ok = std::abs(qubits / 19e6 - 1.0) <= 0.10 &&
           std::abs(days / 5.6 - 1.0) <= 0.10;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "default factoring: %.4g physical qubits (paper 19e6), "
                  "%.3f days (paper 5.6), tolerance 10%%",
                  qubits, days);
    c.detail = buf;
    return c;
}

/** In-process estimate of one request line, serialized as the
 *  service serializes a successful outcome. */
std::string
directEstimate(const std::string &line)
{
    const est::EstimateRequest req = est::requestFromJson(line);
    return est::toJson(est::makeEstimator(req.kind)->estimate(req));
}

int
serveSetup(const Options &o)
{
    const std::vector<StreamItem> stream = makeStream(o.seed, 1);
    DispatchProcess proc(o.binDir);
    proc.writeLine(stream[0].line);
    std::string line;
    if (!proc.readLine(line))
        throw std::runtime_error("traq_dispatch closed before answering");
    const double setup = monoNow() - o.t0;
    int status = 0;
    proc.finish(status);
    emitSetup(setup);
    return 0;
}

int
serveTimed(const Options &o)
{
    const std::size_t n = std::max<std::size_t>(
        1000, static_cast<std::size_t>(o.seconds * kNominalRate));
    const std::vector<StreamItem> stream = makeStream(o.seed, n);

    std::vector<double> sendAt(n, 0.0), recvAt(n, 0.0);
    std::vector<std::uint32_t> answers(n, 0);
    std::vector<std::uint64_t> hashes(n, 0);
    std::map<std::size_t, std::string> kept; // sampled payloads
    std::size_t errors = 0, strays = 0;

    DispatchProcess proc(o.binDir);
    std::mutex mu;
    std::condition_variable cv;
    std::size_t inflight = 0;
    bool writerFailed = false;
    std::thread writer([&] {
        try {
            for (std::size_t i = 0; i < n; ++i) {
                {
                    std::unique_lock<std::mutex> lock(mu);
                    cv.wait(lock, [&] { return inflight < kInflight; });
                    ++inflight;
                    sendAt[i] = monoNow();
                }
                proc.writeLine(stream[i].line);
            }
        } catch (const std::exception &) {
            std::lock_guard<std::mutex> lock(mu);
            writerFailed = true;
        }
        proc.closeInput();
    });

    std::size_t answered = 0;
    std::string line, payload;
    while (answered < n && proc.readLine(line)) {
        const double now = monoNow();
        std::size_t idx = 0;
        if (!untag(line, idx, payload) || idx >= n) {
            ++strays;
            continue;
        }
        recvAt[idx] = now;
        {
            std::lock_guard<std::mutex> lock(mu);
            --inflight;
        }
        cv.notify_one();
        ++answered;
        if (++answers[idx] > 1)
            continue;
        if (payload.compare(0, 8, "{\"error\"") == 0)
            ++errors;
        hashes[idx] = fnv1a(payload);
        if (idx % kSampleEvery == 0)
            kept.emplace(idx, payload);
    }
    writer.join();
    int status = 0;
    const std::string errText = proc.finish(status);

    // Checks, outside the timed region.
    std::vector<Check> checks;
    std::size_t missing = 0, repeated = 0;
    for (std::uint32_t a : answers) {
        missing += a == 0;
        repeated += a > 1;
    }
    Check once;
    once.name = "exactly-once";
    once.ok = !writerFailed && missing == 0 && repeated == 0 && strays == 0 &&
              WIFEXITED(status) && WEXITSTATUS(status) == 0;
    once.detail = std::to_string(n) + " sent, " + std::to_string(missing) +
                  " unanswered, " + std::to_string(repeated) +
                  " answered twice, " + std::to_string(strays) +
                  " stray lines, traq_dispatch status " + std::to_string(status);
    checks.push_back(once);
    Check noErr;
    noErr.name = "no-error-lines";
    noErr.ok = errors == 0;
    noErr.detail = std::to_string(errors) + " error payloads";
    checks.push_back(noErr);

    std::size_t dups = 0, dupMismatch = 0;
    for (std::size_t i = 0; i < n; ++i)
        if (stream[i].dupOf >= 0) {
            ++dups;
            dupMismatch +=
                hashes[i] != hashes[static_cast<std::size_t>(stream[i].dupOf)];
        }
    Check dup;
    dup.name = "duplicates-identical";
    dup.ok = dupMismatch == 0;
    dup.detail = std::to_string(dupMismatch) + " of " + std::to_string(dups) +
                 " duplicate payloads differ from their first copy "
                 "(FNV-1a of the bytes)";
    checks.push_back(dup);

    // Request 0 is the paper's default factoring request (stream.hh).
    checks.push_back(paperCheck(kept.count(0) ? kept[0] : "{}"));
    std::size_t sampled = 0, sampleMismatch = 0;
    for (const auto &[idx, body] : kept) {
        ++sampled;
        sampleMismatch += directEstimate(stream[idx].line) != body;
    }
    Check direct;
    direct.name = "matches-direct-estimate";
    direct.ok = sampled > 0 && sampleMismatch == 0;
    direct.detail = std::to_string(sampleMismatch) + " of " +
                    std::to_string(sampled) +
                    " sampled payloads differ from Estimator::estimate";
    checks.push_back(direct);

    // Throughput and tail latency are medians over kWindows equal
    // index ranges of the stream (a window's rate runs from its first
    // send to its last answer), so one stall of a shared host moves
    // one window, not the result.
    std::vector<std::vector<double>> lat(kWindows);
    std::vector<double> rates;
    for (std::size_t w = 0; w < kWindows; ++w) {
        const std::size_t lo = n * w / kWindows, hi = n * (w + 1) / kWindows;
        double last = sendAt[lo];
        for (std::size_t i = lo; i < hi; ++i)
            if (answers[i] != 0) {
                lat[w].push_back((recvAt[i] - sendAt[i]) * 1e3);
                last = std::max(last, recvAt[i]);
            }
        rates.push_back(static_cast<double>(hi - lo) / (last - sendAt[lo]));
    }

    Record metrics;
    metrics.num("ops_per_s", quantile(rates, 0.5));
    metrics.num("peak_rss_mb", peakRssMb());
    Record info;
    addLatency(metrics, info, lat);
    info.count("inflight", kInflight);
    info.count("duplicates", dups);
    Record resolved;
    resolved.count("workers", kWorkers);
    resolved.raw("serveThreads", serveThreads(errText));
    emitResult(n, errors + missing, metrics, checks, resolved.json(), info);
    return 0;
}

/** Per-call means of one replay pass. */
struct ServeFigures
{
    std::map<std::string, std::pair<double, std::size_t>> estimate; // by kind
    double parseS = 0, validateS = 0, wireS = 0, jobS = 0, dispatchS = 0;
    std::size_t requests = 0, mismatches = 0, lostWorkers = 0;
    double cacheHitShare = 0.0;
};

ServeFigures
replayServe(const std::vector<StreamItem> &stream, const std::string &binDir,
            Tracer &t)
{
    ServeFigures f;
    auto pool = std::make_shared<service::EstimatorPool>();
    const service::Validator validator(pool, true);
    service::JobQueueOptions jo;
    jo.threads = 1;
    service::JobService jobs(jo);
    service::DispatcherOptions dopts;
    dopts.servePath = binDir + "/traq_serve";
    dopts.workers = kWorkers;
    dopts.workerArgs = {"--threads", std::to_string(kServeThreads)};
    service::Dispatcher dispatcher(dopts);

    for (std::size_t i = 0; i < stream.size(); ++i) {
        Scope request(t, "service.request", i);
        const std::string &line = stream[i].line;
        double t0 = monoNow();
        service::ParsedLine parsed;
        {
            Scope s(t, "service.parse", i);
            parsed = service::parseRequestLine(line);
        }
        double t1 = monoNow();
        f.parseS += t1 - t0;
        if (!parsed.error.empty() || parsed.requests.size() != 1)
            throw std::runtime_error("generated line does not parse: " + line);
        service::Validated v;
        {
            Scope s(t, "service.validate", i);
            v = validator.validate(parsed.requests[0]);
        }
        t0 = monoNow();
        f.validateS += t0 - t1;
        if (!v.ok())
            throw std::runtime_error("generated request invalid: " + line);
        est::EstimateResult result;
        {
            Scope s(t, "estimator.estimate", i);
            result = pool->get(v.request.kind)->estimate(v.request);
        }
        t1 = monoNow();
        auto &[sum, calls] = f.estimate[v.request.kind];
        sum += t1 - t0;
        ++calls;
        const std::string payload = est::toJson(result);
        service::wire::TaggedLine back;
        {
            Scope s(t, "service.wire", i);
            back = service::wire::splitTagged(service::wire::tagLine(i, payload));
        }
        t0 = monoNow();
        f.wireS += t0 - t1;
        {
            Scope s(t, "service.job", i);
            const service::JobId id = jobs.submit(parsed.requests[0]);
            (void)jobs.wait(id);
        }
        t1 = monoNow();
        f.jobS += t1 - t0;
        std::optional<service::DispatchResult> r;
        {
            Scope s(t, "service.dispatch", i);
            dispatcher.submit(i, line);
            r = dispatcher.waitResult();
        }
        f.dispatchS += monoNow() - t1;
        f.mismatches += back.index != i || back.payload != payload || !r ||
                        r->index != i || r->payload != payload;
        ++f.requests;
    }
    f.lostWorkers = kWorkers - dispatcher.liveWorkers();
    dispatcher.closeSubmissions();
    while (dispatcher.waitResult()) {
    }
    const service::JobQueueStats st = jobs.stats();
    f.cacheHitShare = st.submitted ? static_cast<double>(st.cacheHits) /
                                         static_cast<double>(st.submitted)
                                   : 0.0;
    return f;
}

int
serveTrace(const Options &o)
{
    const std::size_t n = std::max<std::size_t>(
        200, static_cast<std::size_t>(o.seconds * kTraceRate));
    const std::vector<StreamItem> stream = makeStream(o.seed, n);

    Tracer on(true);
    ServeFigures f;
    std::size_t mismatches = 0;
    double untracedS = 0, tracedS = 0;
    const double overhead = measureOverhead(
        on, [] {},
        [&](Tracer &t) {
            f = replayServe(stream, o.binDir, t);
            mismatches += f.mismatches;
        },
        untracedS, tracedS);

    std::vector<Check> checks;
    Check same;
    same.name = "stages-agree";
    same.ok = mismatches == 0;
    same.detail = std::to_string(f.mismatches) +
                  " requests whose wire round trip or dispatched payload "
                  "differs from the in-process estimate";
    checks.push_back(same);

    const double per = 1e6 / static_cast<double>(f.requests);
    Record m;
    for (const char *kind : kKinds) {
        const auto it = f.estimate.find(kind);
        m.num(std::string("estimator.estimate_us.") + kind,
              it == f.estimate.end()
                  ? 0.0
                  : it->second.first * 1e6 /
                        static_cast<double>(it->second.second));
    }
    m.num("service.parse_us", f.parseS * per);
    m.num("service.validate_us", f.validateS * per);
    m.num("service.wire_us", f.wireS * per);
    m.num("service.job_latency_us", f.jobS * per);
    m.num("service.cache_hit_share", f.cacheHitShare);
    m.num("service.dispatch_overhead_us", (f.dispatchS - f.jobS) * per);
    m.count("service.dispatch_requeues", f.lostWorkers);
    m.num("trace.overhead_share", overhead);
    finishTrace(m, on, o.traceOut);

    Record resolved;
    resolved.count("workers", kWorkers);
    resolved.count("serveThreadsRequested", kServeThreads);
    resolved.count("jobServiceThreads", 1);
    Record info;
    info.num("untraced_replay_s", untracedS);
    info.num("traced_replay_s", tracedS);
    info.count("spans", on.spans().size());
    emitResult(f.requests, 0, m, checks, resolved.json(), info);
    return 0;
}

} // namespace

int
runServeWorkload(const Options &o)
{
    if (o.mode == "setup")
        return serveSetup(o);
    if (o.mode == "run")
        return serveTimed(o);
    if (o.mode == "trace")
        return serveTrace(o);
    throw std::runtime_error("unknown mode " + o.mode);
}

} // namespace perfbench
