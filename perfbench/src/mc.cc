/**
 * @file
 * The Monte-Carlo workloads: memory-pauli, cnot-erasure (one long
 * MonteCarloEngine run each) and alpha-fit (a sequence of mc-alpha
 * estimates).  The traced mode replays the engine's shard loop on one
 * thread through the public stage functions (FrameSimulator::
 * sampleInto, extractSyndromeBlock, decodeBatchSorted, the decoder's
 * decodeSpan / decodeWithContext), and checks that the replay
 * reproduces the engine's counts exactly before reporting its split.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/codes/experiments.hh"
#include "src/codes/surface_code.hh"
#include "src/common/rng.hh"
#include "src/common/word.hh"
#include "src/decoder/compile_cache.hh"
#include "src/decoder/decoder.hh"
#include "src/decoder/global_memo.hh"
#include "src/decoder/monte_carlo.hh"
#include "src/estimator/estimator.hh"
#include "src/estimator/simulation.hh"
#include "src/estimator/sweep.hh"
#include "src/model/fit.hh"
#include "src/noise/noise.hh"
#include "src/sim/dem.hh"
#include "src/sim/frame.hh"
#include "util.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using namespace traq;

constexpr std::uint64_t kShardShots = 4096; // McOptions default
constexpr unsigned kEngineThreads = 2;
/** Engine runs a timed long run is split into, at most. */
constexpr std::uint64_t kMaxChunks = 10;
/** Shots per mc-alpha grid point: enough that the fitted alpha of
 *  every seed stays well inside the [0.1, 0.25] check. */
constexpr double kAlphaShots = 40000;
constexpr unsigned kAlphaSweepThreads = 2;

/** One long-run Monte-Carlo workload: the circuit and the options
 *  the engine runs it with. */
struct McSpec
{
    codes::Experiment exp;
    decoder::McOptions opts;
    /** Decoded shots per second the run is sized by (close to the
     *  2-thread rate on a 4-core x86-64 host). */
    double nominalRate = 0.0;
    /** Shards compared against the all-off one-thread reference. */
    std::uint64_t prefixShards = 0;
};

codes::Experiment
buildExperiment(const std::string &workload)
{
    if (workload == "memory-pauli") {
        codes::SurfaceCode sc(5);
        return codes::buildMemory(sc, 'Z', 5,
                                  codes::NoiseParams::uniform(1e-3));
    }
    codes::TransversalCnotSpec c;
    c.distance = 5;
    c.cnotLayers = 4;
    c.noise = codes::NoiseParams::uniform(1e-3);
    return codes::buildTransversalCnot(c);
}

McSpec
longRunSpec(const std::string &workload, std::uint64_t seed)
{
    McSpec s;
    s.exp = buildExperiment(workload);
    s.opts.seed = deriveSeed(seed, 1);
    s.opts.threads = kEngineThreads;
    s.opts.shardShots = kShardShots;
    if (workload == "memory-pauli") {
        s.opts.decoder = decoder::DecoderKind::Fallback;
        s.nominalRate = 1.0e6;
        s.prefixShards = 64;
    } else {
        s.opts.noiseSpec.setFlat("noise.atom-loss.p", 0.005);
        s.opts.erasureAware = true;
        s.opts.decoder = decoder::DecoderKind::Correlated;
        s.nominalRate = 3.3e3;
        s.prefixShards = 1;
    }
    return s;
}

/** The circuit the sampler runs: the experiment compiled with the
 *  workload's noise stack (the engine compiles with the same
 *  default platform parameters). */
sim::Circuit
sampledCircuit(const codes::Experiment &exp, const noise::NoiseSpec &spec)
{
    if (spec.empty())
        return exp.circuit;
    return noise::NoiseModel::fromSpec(spec).compile(exp.circuit);
}

std::string
resolvedJson(const char *decoderName, const char *dispatch,
             unsigned lanes, unsigned threads)
{
    Record r;
    r.str("decoder", decoderName);
    r.str("cpuDispatch", dispatch);
    r.count("wordLanes", lanes);
    r.count("threadsUsed", threads);
    return r.json();
}

// ------------------------------------------------------------------
// Replay of the engine's shard loop on one thread.

/** Decoder wrapper timing every matcher call as a decoder.match span
 *  and counting the syndromes it was handed. */
class TimedDecoder : public decoder::Decoder
{
  public:
    TimedDecoder(std::unique_ptr<decoder::Decoder> inner, Tracer &t)
        : inner_(std::move(inner)), t_(t)
    {}

    std::uint32_t decode(const std::vector<std::uint32_t> &syn) override
    {
        return timed([&] { return inner_->decode(syn); });
    }
    std::uint32_t decodeSpan(std::span<const std::uint32_t> syn) override
    {
        return timed([&] { return inner_->decodeSpan(syn); });
    }
    std::uint32_t decodeWithContext(std::span<const std::uint32_t> syn,
                                    const decoder::DecodeContext &ctx) override
    {
        return timed([&] { return inner_->decodeWithContext(syn, ctx); });
    }
    void reset() override { inner_->reset(); }
    const char *name() const override { return inner_->name(); }
    std::uint64_t fallbacks() const override { return inner_->fallbacks(); }
    std::uint64_t predecodedPairs() const override
    {
        return inner_->predecodedPairs();
    }

    std::uint64_t group = 0;     //!< id of the batch being decoded
    std::uint64_t syndromes = 0; //!< syndromes handed to the matcher
    /** Of those, syndromes that went to the UF fallback in at least
     *  one matching pass (the correlated decoder runs two). */
    std::uint64_t fellBack = 0;

  private:
    template <class F>
    std::uint32_t timed(F &&decodeOne)
    {
        const std::uint64_t before = inner_->fallbacks();
        std::uint32_t mask;
        {
            Scope s(t_, "decoder.match", group);
            mask = decodeOne();
        }
        ++syndromes;
        fellBack += inner_->fallbacks() != before;
        return mask;
    }

    std::unique_ptr<decoder::Decoder> inner_;
    Tracer &t_;
};

/** Counts of a replay; the first five must equal the engine's. */
struct ReplayTally
{
    std::uint64_t shots = 0;
    std::uint64_t failures = 0;  //!< shots with any observable wrong
    std::uint64_t defects = 0;
    std::uint64_t fallbacks = 0; //!< incl. memo-replayed increments
    std::uint64_t heralded = 0;
    std::uint64_t memoHits = 0;
    std::uint64_t globalHits = 0;
    std::uint64_t matched = 0;        //!< syndromes the matcher saw
    std::uint64_t matchFallbacks = 0; //!< of those, sent to UF
};

/**
 * Decode shots [0, shots) of `circuit` under `opts` the way one
 * engine worker decodes its shards, in shard order.  The group id of
 * every span is the global batch number.
 */
ReplayTally
replayShards(const sim::Circuit &circuit, const decoder::DecodeGraph &graph,
             const decoder::McOptions &opts, Tracer &t, std::uint64_t &group)
{
    const decoder::DecoderKind kind = decoder::resolveDecoderKind(opts.decoder);
    decoder::DecoderConfig cfg;
    cfg.mwpmMaxDefects = opts.mwpmMaxDefects;
    cfg.correlationBoost = opts.correlationBoost;
    cfg.windowRounds = opts.windowRounds;
    cfg.commitRounds = opts.commitRounds;
    cfg.predecode = decoder::resolvePredecode(opts.predecode) ? 1 : 0;
    cfg.predecodeRadius = opts.predecodeRadius;
    cfg.reachCache = decoder::resolveReachCache(opts.reachCache) ? 1 : 0;
    const bool memoOn = decoder::resolveDecodeMemo(opts.decodeMemo);
    decoder::GlobalDecodeMemo *global =
        memoOn && decoder::resolveGlobalMemo(opts.globalMemo)
            ? &decoder::GlobalDecodeMemo::instance()
            : nullptr;
    const decoder::DecodeSetupKey key =
        decoder::decodeSetupKey(graph, kind, cfg);
    TimedDecoder dec(decoder::makeDecoder(kind, graph, cfg), t);

    const unsigned lanes = wordBackendLanes(opts.wordBackend);
    sim::FrameSimulator fsim(0, lanes, resolveCpuDispatch(opts.cpuDispatch));
    const std::uint64_t batchShots = fsim.shotsPerBatch();
    std::uint64_t unit = std::max(batchShots, opts.shardShots);
    unit = (unit + batchShots - 1) / batchShots * batchShots;
    const bool haveHeralds = circuit.numHeraldChannels() > 0;
    const bool erasureAware = haveHeralds && opts.erasureAware;

    sim::FrameBatch batch;
    sim::SyndromeBlock block;
    std::vector<std::uint64_t> live(lanes);
    std::vector<std::uint32_t> predicted(batchShots);
    decoder::BatchDecodeScratch scratch;
    std::vector<double> ctxWeights;
    for (const decoder::GraphEdge &e : graph.edges())
        ctxWeights.push_back(e.weight);
    std::vector<std::uint32_t> touched;
    // Erasure path: a per-batch memo of (defects, heralds) -> first
    // shot, with that shot's fallback delta.
    std::unordered_map<std::string, std::uint32_t> heraldMemo;
    std::vector<std::uint64_t> shotFallbacks(batchShots);

    ReplayTally tally;
    const std::uint64_t fb0 = dec.fallbacks();
    std::uint64_t replayed = 0;
    const std::uint64_t numShards = (opts.shots + unit - 1) / unit;
    for (std::uint64_t shard = 0; shard < numShards; ++shard) {
        const std::uint64_t shardShots =
            std::min(unit, opts.shots - shard * unit);
        fsim.rng() = Rng(opts.seed, shard);
        for (std::uint64_t done = 0; done < shardShots;) {
            const std::uint64_t g = ++group;
            dec.group = g;
            {
                Scope s(t, "sim.sample", g);
                fsim.sampleInto(circuit, batch);
            }
            const std::uint64_t n = std::min(batchShots, shardShots - done);
            for (unsigned l = 0; l < lanes; ++l) {
                const std::uint64_t lo = 64ULL * l;
                const std::uint64_t here =
                    n <= lo ? 0 : std::min<std::uint64_t>(64, n - lo);
                live[l] = here == 64 ? ~0ULL : ((1ULL << here) - 1);
            }
            {
                Scope s(t, "sim.extract", g);
                sim::extractSyndromeBlock(batch, live, block);
            }
            tally.defects += block.offsets[n];
            decoder::SyndromeBatch view;
            view.offsets = {block.offsets.data(), static_cast<std::size_t>(n) + 1};
            view.defects = {block.defects.data(), block.offsets[n]};
            Scope batchSpan(t, "decoder.batch", g);
            if (!erasureAware) {
                const decoder::BatchDecodeStats st = decoder::decodeBatchSorted(
                    dec, view, {predicted.data(), static_cast<std::size_t>(n)},
                    scratch, memoOn, global, key);
                tally.memoHits += st.memoHits;
                tally.globalHits += st.globalHits;
                replayed += st.replayedFallbacks;
                if (haveHeralds)
                    for (std::uint64_t s = 0; s < n; ++s)
                        tally.heralded += block.heraldOffsets[s + 1] >
                                          block.heraldOffsets[s];
            } else {
                heraldMemo.clear();
                for (std::uint64_t s = 0; s < n; ++s) {
                    const auto syn = view.syndrome(s);
                    const auto heralds = block.heralds(s);
                    if (!heralds.empty())
                        ++tally.heralded;
                    std::string memoKey;
                    if (memoOn) {
                        memoKey.assign(reinterpret_cast<const char *>(syn.data()),
                                       syn.size_bytes());
                        memoKey.push_back('|');
                        memoKey.append(reinterpret_cast<const char *>(heralds.data()),
                                       heralds.size_bytes());
                        auto it = heraldMemo.find(memoKey);
                        if (it != heraldMemo.end()) {
                            predicted[s] = predicted[it->second];
                            shotFallbacks[s] = shotFallbacks[it->second];
                            replayed += shotFallbacks[s];
                            ++tally.memoHits;
                            continue;
                        }
                        decoder::GlobalDecodeMemo::Value v;
                        if (global != nullptr &&
                            global->lookup(key, syn, heralds, v)) {
                            predicted[s] = v.predicted;
                            shotFallbacks[s] = v.fallbacks;
                            replayed += v.fallbacks;
                            ++tally.globalHits;
                            heraldMemo.emplace(memoKey, static_cast<std::uint32_t>(s));
                            continue;
                        }
                    }
                    const std::uint64_t before = dec.fallbacks();
                    if (heralds.empty()) {
                        predicted[s] = dec.decodeSpan(syn);
                    } else {
                        for (std::uint32_t c : heralds)
                            for (std::uint32_t ei : graph.channelEdges(c))
                                if (ctxWeights[ei] != 0.0) {
                                    touched.push_back(ei);
                                    ctxWeights[ei] = 0.0;
                                }
                        decoder::DecodeContext ctx;
                        ctx.weights = ctxWeights;
                        predicted[s] = dec.decodeWithContext(syn, ctx);
                        for (std::uint32_t ei : touched)
                            ctxWeights[ei] = graph.edges()[ei].weight;
                        touched.clear();
                    }
                    if (memoOn) {
                        shotFallbacks[s] = dec.fallbacks() - before;
                        heraldMemo.emplace(memoKey, static_cast<std::uint32_t>(s));
                        if (global != nullptr)
                            global->insert(key, syn, heralds,
                                           {predicted[s],
                                            static_cast<std::uint32_t>(shotFallbacks[s]),
                                            0});
                    }
                }
            }
            for (std::uint64_t s = 0; s < n; ++s)
                tally.failures += (predicted[s] ^ block.observables[s]) != 0;
            done += n;
            tally.shots += n;
        }
    }
    tally.fallbacks = dec.fallbacks() - fb0 + replayed;
    tally.matched = dec.syndromes;
    tally.matchFallbacks = dec.fellBack;
    return tally;
}

/** Exact comparison of a replay with an engine result. */
Check
replayMatchesEngine(const ReplayTally &r, const decoder::McResult &e)
{
    Check c;
    c.name = "replay-matches-engine";
    const auto engineDefects = static_cast<std::uint64_t>(
        std::llround(e.avgDefects * static_cast<double>(e.shots)));
    c.ok = r.shots == e.shots && r.failures == e.anyObservable.hits &&
           r.defects == engineDefects && r.fallbacks == e.mwpmFallbacks &&
           r.heralded == e.heraldedShots;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "replay shots/failures/defects/fallbacks/heralded "
                  "%llu/%llu/%llu/%llu/%llu vs engine %llu/%llu/%llu/%llu/%llu",
                  (unsigned long long)r.shots, (unsigned long long)r.failures,
                  (unsigned long long)r.defects, (unsigned long long)r.fallbacks,
                  (unsigned long long)r.heralded, (unsigned long long)e.shots,
                  (unsigned long long)e.anyObservable.hits,
                  (unsigned long long)engineDefects,
                  (unsigned long long)e.mwpmFallbacks,
                  (unsigned long long)e.heraldedShots);
    c.detail = buf;
    return c;
}

// ------------------------------------------------------------------
// Checks of the long runs.

/** Mean defects per shot within z standard errors of the DEM
 *  expectation of the sampled circuit. */
Check
defectCheck(const sim::Circuit &circuit, double avgDefects, std::uint64_t shots)
{
    const DefectExpectation ex = expectedDefects(sim::buildDem(circuit));
    const double se = std::sqrt(ex.variance / static_cast<double>(shots));
    constexpr double z = 5.0;
    Check c;
    c.name = "defects-match-dem";
    c.ok = std::abs(avgDefects - ex.mean) <= z * se;
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "mean defects/shot %.6f, DEM expectation %.6f, "
                  "tolerance %.0f x %.2e",
                  avgDefects, ex.mean, z, se);
    c.detail = buf;
    return c;
}

Check
heraldCheck(const sim::Circuit &circuit, std::uint64_t heralded,
            std::uint64_t shots)
{
    const double p = heraldProbability(circuit);
    const Interval w = wilson(heralded, shots, 5.0);
    Check c;
    c.name = "herald-rate";
    c.ok = p >= w.lo && p <= w.hi;
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "%llu of %llu shots heralded, expected rate %.6f, "
                  "Wilson(z=5) [%.6f, %.6f]",
                  (unsigned long long)heralded, (unsigned long long)shots, p,
                  w.lo, w.hi);
    c.detail = buf;
    return c;
}

/** The default configuration over a prefix of shards against a
 *  one-thread run with every cache and predecode off. */
std::vector<Check>
referenceChecks(McSpec &spec, decoder::MonteCarloEngine &engine,
                const decoder::McResult &full)
{
    decoder::McOptions prefix = spec.opts;
    prefix.shots = spec.prefixShards * kShardShots;
    const decoder::McResult def = engine.run(prefix);
    decoder::McOptions refOpts = prefix;
    refOpts.threads = 1;
    refOpts.decodeMemo = 0;
    refOpts.reachCache = 0;
    refOpts.globalMemo = 0;
    refOpts.compileCache = 0;
    refOpts.predecode = 0;
    const decoder::McResult ref = decoder::runMonteCarlo(spec.exp, refOpts);

    std::vector<Check> out;
    Check bit;
    bit.name = "bit-identity-vs-all-off";
    bit.ok = def.anyObservable.hits == ref.anyObservable.hits &&
             def.avgDefects == ref.avgDefects &&
             def.mwpmFallbacks == ref.mwpmFallbacks &&
             def.heraldedShots == ref.heraldedShots &&
             def.perObservable.size() == ref.perObservable.size();
    for (std::size_t k = 0; bit.ok && k < def.perObservable.size(); ++k)
        bit.ok = def.perObservable[k].hits == ref.perObservable[k].hits;
    char buf[240];
    std::snprintf(buf, sizeof(buf),
                  "%llu shots: failures %llu vs %llu, mean defects %.9f vs "
                  "%.9f, fallbacks %llu vs %llu",
                  (unsigned long long)prefix.shots,
                  (unsigned long long)def.anyObservable.hits,
                  (unsigned long long)ref.anyObservable.hits, def.avgDefects,
                  ref.avgDefects, (unsigned long long)def.mwpmFallbacks,
                  (unsigned long long)ref.mwpmFallbacks);
    bit.detail = buf;
    out.push_back(bit);

    const Interval run = wilson(full.anyObservable.hits, full.shots, 3.0);
    const Interval refW = wilson(ref.anyObservable.hits, ref.shots, 3.0);
    Check ler;
    ler.name = "logical-error-no-worse";
    ler.ok = run.lo <= refW.hi;
    std::snprintf(buf, sizeof(buf),
                  "run %llu/%llu Wilson(z=3) low %.3e <= reference "
                  "%llu/%llu high %.3e",
                  (unsigned long long)full.anyObservable.hits,
                  (unsigned long long)full.shots, run.lo,
                  (unsigned long long)ref.anyObservable.hits,
                  (unsigned long long)ref.shots, refW.hi);
    ler.detail = buf;
    out.push_back(ler);
    return out;
}

Check
resolvedCheck(const decoder::McResult &r, const decoder::McOptions &opts)
{
    Check c;
    c.name = "resolved-as-requested";
    const std::string want = decoder::decoderKindName(opts.decoder);
    const std::uint64_t shards =
        (opts.shots + opts.shardShots - 1) / opts.shardShots;
    c.ok = want == r.decoder &&
           r.threadsUsed == std::min<std::uint64_t>(opts.threads, shards);
    c.detail = std::string("decoder ") + r.decoder + " (requested " + want +
               "), threads " + std::to_string(r.threadsUsed);
    return c;
}

int
longRunSetup(const Options &o)
{
    McSpec spec = longRunSpec(o.workload, o.seed);
    decoder::McOptions first = spec.opts;
    first.shots = 1;
    decoder::MonteCarloEngine engine(spec.exp, first);
    engine.run();
    emitSetup(monoNow() - o.t0);
    return 0;
}

int
longRunTimed(const Options &o)
{
    McSpec spec = longRunSpec(o.workload, o.seed);
    // The run is up to kMaxChunks engine runs of equal size on one engine, each
    // with its own seed; the process-global memo and compiled setup
    // carry over between them as they would between the shards of one
    // run.  Throughput is the median chunk rate, which a transient
    // slowdown of a shared host moves less than the whole-run mean.
    // A chunk is at least one shard per engine thread.
    const std::uint64_t shards = std::max<std::uint64_t>(
        kEngineThreads, static_cast<std::uint64_t>(
                            o.seconds * spec.nominalRate / kShardShots));
    const std::uint64_t chunks =
        std::min<std::uint64_t>(kMaxChunks, shards / kEngineThreads);
    decoder::McOptions chunk = spec.opts;
    chunk.shots = shards / chunks * kShardShots;
    decoder::MonteCarloEngine engine(spec.exp, spec.opts);

    decoder::McResult sum;
    std::vector<double> rates, ms;
    double defects = 0.0;
    std::vector<Check> checks;
    for (std::uint64_t k = 0; k < chunks; ++k) {
        chunk.seed = deriveSeed(o.seed, 1 + k);
        const double t0 = monoNow();
        const decoder::McResult r = engine.run(chunk);
        const double dt = monoNow() - t0;
        rates.push_back(static_cast<double>(r.shots) / dt);
        ms.push_back(dt * 1e3);
        if (k == 0) {
            sum = r;
            defects = r.avgDefects * static_cast<double>(r.shots);
            checks.push_back(resolvedCheck(r, chunk));
            continue;
        }
        sum.shots += r.shots;
        sum.anyObservable.hits += r.anyObservable.hits;
        defects += r.avgDefects * static_cast<double>(r.shots);
        sum.mwpmFallbacks += r.mwpmFallbacks;
        sum.heraldedShots += r.heraldedShots;
        sum.memoHits += r.memoHits;
        sum.crossBatchHits += r.crossBatchHits;
    }
    sum.avgDefects = defects / static_cast<double>(sum.shots);

    const sim::Circuit circuit = sampledCircuit(spec.exp, spec.opts.noiseSpec);
    checks.push_back(defectCheck(circuit, sum.avgDefects, sum.shots));
    if (circuit.numHeraldChannels() > 0)
        checks.push_back(heraldCheck(circuit, sum.heraldedShots, sum.shots));
    for (Check &c : referenceChecks(spec, engine, sum))
        checks.push_back(std::move(c));

    Record metrics;
    metrics.num("ops_per_s", quantile(rates, 0.5));
    metrics.num("peak_rss_mb", peakRssMb());
    Record info;
    addLatency(metrics, info, {ms});
    info.raw("latencies_ms", numbers(ms));
    info.count("shots_per_latency_sample", chunk.shots);
    info.num("mean_defects_per_shot", sum.avgDefects);
    info.count("failures", sum.anyObservable.hits);
    info.count("uf_fallbacks", sum.mwpmFallbacks);
    info.count("memo_hits", sum.memoHits);
    info.count("cross_batch_hits", sum.crossBatchHits);
    info.count("heralded_shots", sum.heraldedShots);
    emitResult(sum.shots, 0, metrics, checks,
               resolvedJson(sum.decoder, sum.cpuDispatch, sum.wordLanes,
                            sum.threadsUsed),
               info);
    return 0;
}

/** Per-layer metrics from one traced replay. */
struct LayerFigures
{
    ReplayTally tally;
    double compileHitShare = 0.0;
    double sweepPoints = 0.0;  //!< grid points evaluated
    double sweepSeconds = 0.0; //!< wall time of the grids
    double fitSeconds = 0.0;
};

void
addLayerMetrics(Record &m, const Tracer &t, const LayerFigures &f,
                double overhead)
{
    const ReplayTally &r = f.tally;
    const auto shots = static_cast<double>(std::max<std::uint64_t>(1, r.shots));
    const double matchS = t.totalSeconds("decoder.match");
    m.num("codes.build_s", t.totalSeconds("codes.build"));
    m.num("noise.compile_s", t.totalSeconds("noise.compile"));
    m.num("sim.sample_s", t.totalSeconds("sim.sample"));
    m.num("sim.extract_s", t.totalSeconds("sim.extract"));
    m.num("sim.defects_per_shot", static_cast<double>(r.defects) / shots);
    m.num("sim.dem_s", t.totalSeconds("sim.dem"));
    m.num("decoder.compile_s", t.totalSeconds("decoder.compile"));
    m.num("decoder.batch_s", t.totalSeconds("decoder.batch"));
    m.num("decoder.memo_hit_share", static_cast<double>(r.memoHits) / shots);
    m.num("decoder.global_hit_share", static_cast<double>(r.globalHits) / shots);
    m.num("decoder.match_s", matchS);
    m.num("decoder.match_us_per_syndrome",
          r.matched ? matchS * 1e6 / static_cast<double>(r.matched) : 0.0);
    m.num("decoder.exact_share",
          r.matched ? 1.0 - static_cast<double>(r.matchFallbacks) /
                                static_cast<double>(r.matched)
                    : 0.0);
    m.num("decoder.heralded_share", static_cast<double>(r.heralded) / shots);
    m.num("decoder.compile_hit_share", f.compileHitShare);
    m.num("estimator.sweep_points_per_s",
          f.sweepSeconds > 0 ? f.sweepPoints / f.sweepSeconds : 0.0);
    m.num("model.fit_s", f.fitSeconds);
    m.num("trace.overhead_share", overhead);
}

double
compileHitShare(const decoder::CompileCacheStats &a,
                const decoder::CompileCacheStats &b)
{
    const double hits = static_cast<double>(b.hits - a.hits);
    const double all = hits + static_cast<double>(b.misses - a.misses);
    return all > 0 ? hits / all : 0.0;
}

/** Start a replay from the same cold state as a fresh process. */
void
coldCaches()
{
    decoder::GlobalDecodeMemo::instance().clear();
    decoder::clearCompileCache();
}

LayerFigures
replayLongRun(const std::string &workload, const decoder::McOptions &opts,
              Tracer &t)
{
    LayerFigures f;
    std::uint64_t group = 0;
    const decoder::CompileCacheStats before = decoder::compileCacheStats();
    codes::Experiment exp;
    {
        Scope s(t, "codes.build", 0);
        exp = buildExperiment(workload);
    }
    sim::Circuit circuit = exp.circuit;
    if (!opts.noiseSpec.empty()) {
        Scope s(t, "noise.compile", 0);
        circuit = sampledCircuit(exp, opts.noiseSpec);
    }
    {
        Scope s(t, "sim.dem", 0);
        (void)sim::buildDem(circuit);
    }
    std::shared_ptr<const decoder::CompiledDecodeSetup> setup;
    {
        Scope s(t, "decoder.compile", 0);
        setup = decoder::compileDecodeSetup(
            exp, opts.noiseSpec,
            decoder::resolveCompileCache(opts.compileCache));
    }
    const sim::Circuit &sampled = setup->compiled ? *setup->compiled : exp.circuit;
    f.tally = replayShards(sampled, setup->graph, opts, t, group);
    f.compileHitShare = compileHitShare(before, decoder::compileCacheStats());
    return f;
}

int
longRunTrace(const Options &o)
{
    McSpec spec = longRunSpec(o.workload, o.seed);
    // A sixteenth of the timed run's shots (whole shards) for
    // memory-pauli, 2048 shots for cnot-erasure: the engine run that
    // vouches for the replay and four single-thread replay passes
    // stay near 10 s, and the span file near 15 MB.
    spec.opts.shots =
        o.workload == "cnot-erasure"
            ? 2048
            : std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                             o.seconds * spec.nominalRate /
                                             16.0 / kShardShots)) *
                  kShardShots;

    std::vector<Check> checks;
    decoder::McResult engineRes;
    {
        decoder::MonteCarloEngine engine(spec.exp, spec.opts);
        engineRes = engine.run();
    }
    checks.push_back(resolvedCheck(engineRes, spec.opts));

    Tracer on(true);
    LayerFigures traced;
    Check same;
    same.ok = true;
    double untracedS = 0, tracedS = 0;
    const double overhead = measureOverhead(
        on, coldCaches,
        [&](Tracer &t) {
            traced = replayLongRun(o.workload, spec.opts, t);
            const Check c = replayMatchesEngine(traced.tally, engineRes);
            same.ok = same.ok && c.ok;
            same.name = c.name;
            same.detail = c.detail;
        },
        untracedS, tracedS);
    checks.push_back(same);

    Record m;
    addLayerMetrics(m, on, traced, overhead);
    finishTrace(m, on, o.traceOut);

    Record info;
    info.num("untraced_replay_s", untracedS);
    info.num("traced_replay_s", tracedS);
    info.count("spans", on.spans().size());
    emitResult(traced.tally.shots, 0, m, checks,
               resolvedJson(engineRes.decoder, engineRes.cpuDispatch,
                            engineRes.wordLanes, engineRes.threadsUsed),
               info);
    return 0;
}

// ------------------------------------------------------------------
// alpha-fit

est::EstimateRequest
alphaRequest(std::uint64_t seed, std::size_t fit)
{
    // Seeds below 2^52 survive the request's double encoding exactly.
    const double s =
        static_cast<double>(deriveSeed(seed, 100 + fit) >> 12);
    return {"mc-alpha",
            {{"seed", s},
             {"shots", kAlphaShots},
             {"sweepThreads", kAlphaSweepThreads},
             {"mcThreads", 1}}};
}

std::size_t
alphaFits(double seconds)
{
    return std::max<std::size_t>(2, static_cast<std::size_t>(
                                        std::lround(seconds / 2.5)));
}

std::string
alphaResolved()
{
    return resolvedJson(
        decoder::decoderKindName(
            decoder::resolveDecoderKind(decoder::DecoderKind::Fallback)),
        cpuDispatchName(resolveCpuDispatch(CpuDispatch::Auto)),
        wordBackendLanes(WordBackend::Auto), kAlphaSweepThreads);
}

Check
alphaCheck(const est::EstimateResult &r, std::size_t fit)
{
    const double alpha = r.metric("alpha");
    const double lambda = r.metric("lambda");
    Check c;
    c.name = "alpha-in-range[" + std::to_string(fit) + "]";
    c.ok = alpha >= 0.1 && alpha <= 0.25 && lambda > 1.0;
    char buf[120];
    std::snprintf(buf, sizeof(buf),
                  "alpha %.4f (want [0.1, 0.25]), Lambda %.3f (want > 1)",
                  alpha, lambda);
    c.detail = buf;
    return c;
}

int
alphaSetup(const Options &o)
{
    const auto est = est::makeEstimator("mc-alpha");
    const est::EstimateRequest req = alphaRequest(o.seed, 0);
    est->checkParams(req);
    // The fit's first grid point (the d = dMin memory anchor) up to its
    // first sampled shot, as for the long runs: exec and static
    // initialisation alone are a few milliseconds that drift with the
    // host by more than the bound.
    est::McSimSpec first;
    first.distance = est::McAlphaSpec{}.dMin;
    first.shots = 1;
    first.seed = static_cast<std::uint64_t>(req.params.at("seed"));
    est::makeMcLogicalErrorEstimator(first)->estimate(
        {"mc-logical-error", {}});
    emitSetup(monoNow() - o.t0);
    return 0;
}

int
alphaTimed(const Options &o)
{
    const auto est = est::makeEstimator("mc-alpha");
    const std::size_t fits = alphaFits(o.seconds);
    std::vector<double> latencies, rates;
    std::vector<Check> checks;
    double shots = 0.0;
    for (std::size_t f = 0; f < fits; ++f) {
        const est::EstimateRequest req = alphaRequest(o.seed, f);
        const double t0 = monoNow();
        const est::EstimateResult r = est->estimate(req);
        const double dt = monoNow() - t0;
        latencies.push_back(dt * 1e3);
        rates.push_back(r.metric("totalShots") / dt);
        shots += r.metric("totalShots");
        checks.push_back(alphaCheck(r, f));
    }
    Record metrics;
    metrics.num("ops_per_s", quantile(rates, 0.5));
    metrics.num("peak_rss_mb", peakRssMb());
    Record info;
    addLatency(metrics, info, {latencies});
    info.raw("latencies_ms", numbers(latencies));
    info.num("decoded_shots", shots);
    emitResult(fits, 0, metrics, checks, alphaResolved(), info);
    return 0;
}

/**
 * One mc-alpha fit replayed through public calls: the SweepRunner
 * grids, one experiment build, compile and shard replay per grid
 * point (one thread), then the Lambda estimate and fitCnotAnsatz,
 * mirroring src/estimator/simulation.cc.  Returns the fitted alpha.
 */
double
replayAlphaFit(const est::EstimateRequest &req, Tracer &t, LayerFigures &f)
{
    const est::ParamMap &p = req.params;
    const est::McAlphaSpec spec;
    const double pPhys = spec.pPhys;
    std::vector<est::EstimateRequest> jobs;
    std::size_t numMem = 0;
    const double sweep0 = monoNow();
    {
        Scope s(t, "estimator.sweep", 0);
        std::vector<double> distances, cnotDistances, xs;
        for (int d = spec.dMin; d <= spec.dMax; d += 2)
            distances.push_back(d);
        for (int d = spec.dMin; d <= std::max(spec.cnotDMax, spec.dMin); d += 2)
            cnotDistances.push_back(d);
        for (int x = 1; x <= spec.xMax && x <= spec.cnotLayers; x *= 2)
            xs.push_back(x);
        est::SweepRunner memory(est::EstimateRequest{"mc-logical-error", {}});
        memory.addAxis("distance", distances);
        est::SweepRunner cnot(est::EstimateRequest{
            "mc-logical-error",
            {{"cnotLayers", static_cast<double>(spec.cnotLayers)}}});
        cnot.addAxis("distance", cnotDistances);
        cnot.addAxis("cnotsPerBatch", xs);
        numMem = memory.numJobs();
        for (std::size_t j = 0; j < memory.numJobs(); ++j)
            jobs.push_back(memory.request(j));
        for (std::size_t j = 0; j < cnot.numJobs(); ++j)
            jobs.push_back(cnot.request(j));
    }
    std::vector<double> pPerRound;
    std::vector<model::CnotDataPoint> data;
    std::uint64_t group = 0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        Scope point(t, "estimator.point", j);
        const est::ParamMap &jp = jobs[j].params;
        const int d = static_cast<int>(jp.at("distance"));
        const bool isCnot = jp.count("cnotLayers") != 0;
        codes::Experiment exp;
        int seRounds = d;
        int layers = 0;
        double x = 0.0;
        {
            Scope s(t, "codes.build", j);
            if (isCnot) {
                codes::TransversalCnotSpec c;
                c.distance = d;
                c.cnotLayers = layers = static_cast<int>(jp.at("cnotLayers"));
                c.cnotsPerBatch = static_cast<int>(jp.at("cnotsPerBatch"));
                c.seRoundsPerBatch = 1;
                c.noise = codes::NoiseParams::uniform(pPhys);
                exp = codes::buildTransversalCnot(c);
                seRounds = (layers + c.cnotsPerBatch - 1) / c.cnotsPerBatch;
                x = c.cnotsPerBatch;
            } else {
                codes::SurfaceCode sc(d);
                exp = codes::buildMemory(sc, 'Z', d,
                                         codes::NoiseParams::uniform(pPhys));
            }
        }
        {
            Scope s(t, "sim.dem", j);
            (void)sim::buildDem(exp.circuit);
        }
        decoder::McOptions mc;
        mc.shots = static_cast<std::uint64_t>(std::llround(p.at("shots")));
        mc.seed = static_cast<std::uint64_t>(std::llround(p.at("seed")));
        mc.threads = 1;
        std::shared_ptr<const decoder::CompiledDecodeSetup> setup;
        {
            Scope s(t, "decoder.compile", j);
            setup = decoder::compileDecodeSetup(
                exp, mc.noiseSpec, decoder::resolveCompileCache(mc.compileCache));
        }
        const ReplayTally r =
            replayShards(exp.circuit, setup->graph, mc, t, group);
        f.tally.shots += r.shots;
        f.tally.failures += r.failures;
        f.tally.defects += r.defects;
        f.tally.fallbacks += r.fallbacks;
        f.tally.memoHits += r.memoHits;
        f.tally.globalHits += r.globalHits;
        f.tally.matched += r.matched;
        f.tally.matchFallbacks += r.matchFallbacks;
        const double pl = static_cast<double>(r.failures) /
                          static_cast<double>(r.shots);
        if (j < numMem) {
            pPerRound.push_back(pl / seRounds);
        } else if (r.failures > 0) {
            data.push_back({d, x, pl / layers});
        }
    }
    f.sweepSeconds += monoNow() - sweep0;
    f.sweepPoints += static_cast<double>(jobs.size());

    Scope s(t, "model.fit", 0);
    const double t0 = monoNow();
    const double lambda = std::pow(
        model::lambdaFromMemoryPair(pPerRound.front(), pPerRound.back()),
        1.0 / static_cast<double>(pPerRound.size() - 1));
    model::CnotFitOptions fitOpts;
    fitOpts.fixLambda = lambda;
    const model::CnotFit fit = model::fitCnotAnsatz(data, fitOpts);
    f.fitSeconds += monoNow() - t0;
    return fit.alpha;
}

int
alphaTrace(const Options &o)
{
    // Two fits in a row, so the second shows what the compile cache
    // and the global memo keep from the first; 10^4 shots per grid
    // point keeps the four replay passes near 8 s.
    std::vector<est::EstimateRequest> reqs;
    std::vector<double> refAlpha;
    double refShots = 0.0;
    const auto estimator = est::makeEstimator("mc-alpha");
    for (std::size_t fit = 0; fit < 2; ++fit) {
        est::EstimateRequest req = alphaRequest(o.seed, fit);
        req.params["shots"] = 10000;
        const est::EstimateResult ref = estimator->estimate(req);
        refAlpha.push_back(ref.metric("alpha"));
        refShots += ref.metric("totalShots");
        reqs.push_back(std::move(req));
    }

    Tracer on(true);
    LayerFigures traced;
    Check same;
    same.name = "replay-matches-estimator";
    same.ok = true;
    double untracedS = 0, tracedS = 0;
    const double overhead = measureOverhead(
        on, coldCaches,
        [&](Tracer &t) {
            traced = LayerFigures{};
            const decoder::CompileCacheStats before =
                decoder::compileCacheStats();
            for (std::size_t fit = 0; fit < reqs.size(); ++fit) {
                const double alpha = replayAlphaFit(reqs[fit], t, traced);
                same.ok = same.ok && alpha == refAlpha[fit];
                char buf[120];
                std::snprintf(buf, sizeof(buf),
                              "fit %zu: replayed alpha %.17g vs mc-alpha %.17g",
                              fit, alpha, refAlpha[fit]);
                same.detail = buf;
            }
            same.ok = same.ok &&
                      static_cast<double>(traced.tally.shots) == refShots;
            traced.compileHitShare =
                compileHitShare(before, decoder::compileCacheStats());
        },
        untracedS, tracedS);

    std::vector<Check> checks{same};
    Record m;
    addLayerMetrics(m, on, traced, overhead);
    finishTrace(m, on, o.traceOut);

    Record info;
    info.num("untraced_replay_s", untracedS);
    info.num("traced_replay_s", tracedS);
    info.count("spans", on.spans().size());
    emitResult(reqs.size(), 0, m, checks, alphaResolved(), info);
    return 0;
}

} // namespace

int
runMonteCarloWorkload(const Options &o)
{
    const bool alpha = o.workload == "alpha-fit";
    if (o.mode == "setup")
        return alpha ? alphaSetup(o) : longRunSetup(o);
    if (o.mode == "run")
        return alpha ? alphaTimed(o) : longRunTimed(o);
    if (o.mode == "trace")
        return alpha ? alphaTrace(o) : longRunTrace(o);
    throw std::runtime_error("unknown mode " + o.mode);
}

} // namespace perfbench
