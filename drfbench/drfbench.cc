/**
 * @file
 * drfbench: the end-to-end benchmark program (see NOTES.md).
 *
 * Three closed-loop workloads, each a loop of repetitions generated
 * from one seed (identical ones for soak and fleet, fresh hunt seeds
 * per round for triage):
 *
 *  - soak:   a fault-free {viper, lrcc} x {none, scoped} matrix soak
 *            through SweepSource + runAdaptiveCampaign on 2 threads;
 *  - fleet:  a sweep over the 24 Table III arms through runLocalFleet
 *            with 2 forked workers and the journal on;
 *  - triage: single-thread bug hunts per reachable FaultKind (guided
 *            campaign -> record -> save/load -> shrink -> replay) plus
 *            a predictive race pass over recorded scoped runs.
 *
 * Only public library headers are used. Spans are recorded from this
 * file, around its calls into the libraries: a ShardSpec::run wrapper,
 * a forwarding ShardSource decorator, and the campaign, fleet, trace
 * and predict entry points. With --trace 1 the workload runs once
 * untraced and once traced over the same inputs; the traced pass must
 * reproduce the untraced pass's deterministic totals exactly.
 *
 * Usage: drfbench --workload soak|fleet|triage --seed N --seconds S
 *                 --trace 0|1 [--size full|tiny] [--out-dir DIR]
 *
 * Prints one JSON object on stdout: correct, attempted, failed,
 * metrics (name -> {value, unit}), checks (failed check messages) and
 * detail (raw per-repetition figures).
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "fleet/fleet.hh"
#include "guidance/adaptive_campaign.hh"
#include "guidance/genome.hh"
#include "guidance/sources.hh"
#include "predict/hb.hh"
#include "predict/predict.hh"
#include "sim/random.hh"
#include "trace/repro.hh"
#include "trace/shrink.hh"
#include "trace/trace_file.hh"

using namespace drf;

namespace
{

using Clock = std::chrono::steady_clock;
const Clock::time_point processStart = Clock::now();

/** Seconds since process start (monotonic). */
double
now()
{
    return std::chrono::duration<double>(Clock::now() - processStart)
        .count();
}

double
tvSeconds(const timeval &tv)
{
    return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
}

/** User + system CPU of this process and every reaped child. */
double
cpuSeconds()
{
    double total = 0.0;
    for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
        rusage ru{};
        getrusage(who, &ru);
        total += tvSeconds(ru.ru_utime) + tvSeconds(ru.ru_stime);
    }
    return total;
}

/**
 * Peak resident set over this process and any reaped child, MiB. Self
 * comes from VmHWM, not getrusage: ru_maxrss survives exec, so it would
 * report the launching interpreter's footprint when that was larger.
 */
double
peakRssMb()
{
    long peak_kb = 0;
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            peak_kb = std::strtol(line.c_str() + 6, nullptr, 10);
    }
    rusage ru{};
    getrusage(RUSAGE_CHILDREN, &ru);
    return double(std::max(peak_kb, ru.ru_maxrss)) / 1024.0;
}

/** Keeps the probe's load chain from being optimized away. */
volatile std::uint32_t probeSink = 0;

/**
 * Host speed probe: ~50 ms of a fixed dependent-load chain, in loads
 * per second. Recorded before and after the workload so a contended
 * host shows in the data; it feeds no metric.
 */
double
hostProbe()
{
    static const std::vector<std::uint32_t> next = [] {
        std::vector<std::uint32_t> v(1u << 18);
        for (std::uint32_t i = 0; i < v.size(); ++i)
            v[i] = i;
        Random rng(12345);
        for (std::size_t i = v.size() - 1; i > 0; --i)
            std::swap(v[i], v[rng.below(i + 1)]);
        return v;
    }();
    std::uint32_t p = 0;
    std::uint64_t loads = 0;
    double t0 = now(), elapsed = 0.0;
    do {
        for (int k = 0; k < 10000; ++k)
            p = next[p];
        loads += 10000;
        elapsed = now() - t0;
    } while (elapsed < 0.05);
    probeSink = p;
    return double(loads) / elapsed;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// ---------------------------------------------------------------------
// Spans

/**
 * In-memory span recorder. Disabled, begin() returns -1 and records
 * nothing, so the untraced passes run the same code with no recording.
 * Spans are kept until the run ends and written once (writeChrome).
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name = "";
        int parent = -1;
        double t0 = 0.0;
        double t1 = 0.0;
    };

    void setEnabled(bool on) { _on = on; }

    /** Innermost open span on this thread (-1 if none). */
    static int current() { return tCurrent; }

    int
    begin(const char *name, int parent)
    {
        if (!_on)
            return -1;
        double t = now();
        std::lock_guard<std::mutex> lock(_mutex);
        _spans.push_back(Span{name, parent, t, t});
        return int(_spans.size()) - 1;
    }

    void
    end(int id)
    {
        if (id < 0)
            return;
        double t = now();
        std::lock_guard<std::mutex> lock(_mutex);
        _spans[std::size_t(id)].t1 = t;
    }

    struct Totals
    {
        double total = 0.0; ///< summed span durations
        double self = 0.0;  ///< summed durations minus child coverage
        std::size_t count = 0;
    };

    /** Per-name totals; self time subtracts the union of children. */
    std::map<std::string, Totals>
    totals() const
    {
        std::vector<std::vector<std::size_t>> children(_spans.size());
        for (std::size_t i = 0; i < _spans.size(); ++i) {
            if (_spans[i].parent >= 0)
                children[std::size_t(_spans[i].parent)].push_back(i);
        }
        std::map<std::string, Totals> out;
        for (std::size_t i = 0; i < _spans.size(); ++i) {
            const Span &s = _spans[i];
            std::vector<std::pair<double, double>> iv;
            for (std::size_t c : children[i]) {
                double a = std::max(s.t0, _spans[c].t0);
                double b = std::min(s.t1, _spans[c].t1);
                if (b > a)
                    iv.emplace_back(a, b);
            }
            std::sort(iv.begin(), iv.end());
            double covered = 0.0, hi = s.t0;
            for (auto [a, b] : iv) {
                a = std::max(a, hi);
                if (b > a) {
                    covered += b - a;
                    hi = b;
                }
            }
            Totals &t = out[s.name];
            t.total += s.t1 - s.t0;
            t.self += (s.t1 - s.t0) - covered;
            ++t.count;
        }
        return out;
    }

    /** Chrome trace-event JSON of every span (Perfetto-loadable). */
    bool
    writeChrome(const std::string &path) const
    {
        std::ofstream os(path);
        os << "{\"traceEvents\":[\n";
        for (std::size_t i = 0; i < _spans.size(); ++i) {
            const Span &s = _spans[i];
            char line[256];
            std::snprintf(line, sizeof line,
                          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                          "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                          "\"args\":{\"id\":%zu,\"parent\":%d}}\n",
                          i ? "," : "", s.name, s.t0 * 1e6,
                          (s.t1 - s.t0) * 1e6, i, s.parent);
            os << line;
        }
        os << "]}\n";
        return bool(os);
    }

    friend class ScopedSpan;

  private:
    static thread_local int tCurrent;
    bool _on = false;
    mutable std::mutex _mutex;
    std::vector<Span> _spans;
};

thread_local int Tracer::tCurrent = -1;

/** RAII span, parented to the innermost open span on this thread. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name)
        : _tracer(tracer), _saved(Tracer::tCurrent),
          _id(tracer.begin(name, Tracer::tCurrent))
    {
        if (_id >= 0)
            Tracer::tCurrent = _id;
    }
    ~ScopedSpan()
    {
        _tracer.end(_id);
        Tracer::tCurrent = _saved;
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &_tracer;
    int _saved;
    int _id;
};

// ---------------------------------------------------------------------
// Shard accounting

/** Per-shard facts gathered by the decorator, always on. */
struct ShardTally
{
    std::size_t shards = 0;
    std::size_t failed = 0;
    std::uint64_t events = 0;
    std::uint64_t episodes = 0;
    double hostSeconds = 0.0;
    std::uint64_t viperEvents = 0, lrccEvents = 0;
    double viperSeconds = 0.0, lrccSeconds = 0.0;
    std::size_t firstFailureShards = 0; ///< shards reported up to it
    std::size_t unnamed = 0; ///< failures without a class or known cell
    /**
     * Failures outside the known LRCC false failures (ValueMismatch on
     * an lrcc cell, ROADMAP item 1): any failure of a viper cell, any
     * other class, and any failure without a class or cell.
     */
    std::size_t unexpected = 0;
    std::size_t rounds = 0;
    std::vector<std::string> failures; ///< "index class protocol/scope"
    std::vector<double> batchSeconds;  ///< nextBatch -> last report
    std::vector<double> batchIdle;     ///< workers*span - host seconds
};

/**
 * Forwarding ShardSource decorator: times the wrapped source's own
 * nextBatch/report work (guidance.source), wraps every ShardSpec::run
 * in a "shard" span, stamps the first shard start and first batch
 * request (the end of set-up), and tallies per-shard outcomes from
 * report().
 */
class MeteredSource : public ShardSource
{
  public:
    MeteredSource(ShardSource &inner, Tracer &tracer, unsigned workers)
        : _inner(inner), _tracer(tracer), _workers(workers)
    {
    }

    Strategy strategy() const override { return _inner.strategy(); }

    std::vector<ShardSpec>
    nextBatch() override
    {
        if (_firstBatchAt < 0.0)
            _firstBatchAt = now();
        int parent = Tracer::current();
        std::vector<ShardSpec> batch;
        {
            ScopedSpan span(_tracer, "guidance.source");
            batch = _inner.nextBatch();
        }
        for (ShardSpec &spec : batch) {
            if (spec.gpuPreset) {
                _cells[spec.seed] = Cell{
                    spec.gpuPreset->system.l1.protocol,
                    spec.gpuPreset->tester.scopeMode};
            }
            spec.run = [this, parent, run = std::move(spec.run)]() {
                double t = now();
                double unset = -1.0;
                _firstShardAt.compare_exchange_strong(unset, t);
                int id = _tracer.begin("shard", parent);
                ShardOutcome out = run();
                _tracer.end(id);
                _shardWall.fetch_add(now() - t);
                return out;
            };
        }
        if (!batch.empty()) {
            ++_tally.rounds;
            _batchSize = batch.size();
            _batchReported = 0;
            _batchHost = 0.0;
            _batchStart = now();
        }
        return batch;
    }

    void
    report(const ShardOutcome &outcome,
           const ShardFeedback &feedback) override
    {
        const TesterResult &r = outcome.result;
        ShardTally &t = _tally;
        ++t.shards;
        t.events += r.events;
        t.episodes += r.episodes;
        t.hostSeconds += r.hostSeconds;
        _batchHost += r.hostSeconds;
        auto cell = _cells.find(outcome.seed);
        bool lrcc = cell != _cells.end() &&
                    cell->second.protocol == ProtocolKind::Lrcc;
        (lrcc ? t.lrccEvents : t.viperEvents) += r.events;
        (lrcc ? t.lrccSeconds : t.viperSeconds) += r.hostSeconds;
        if (!r.passed) {
            ++t.failed;
            if (r.failureClass == FailureClass::None || cell == _cells.end())
                ++t.unnamed;
            if (!lrcc || r.failureClass != FailureClass::ValueMismatch)
                ++t.unexpected;
            if (t.firstFailureShards == 0)
                t.firstFailureShards = t.shards;
            std::string where =
                cell == _cells.end()
                    ? std::string("?")
                    : std::string(protocolKindName(cell->second.protocol)) +
                          "/" + scopeModeName(cell->second.scope);
            t.failures.push_back(std::to_string(t.shards - 1) + " " +
                                 failureClassName(r.failureClass) + " " +
                                 where);
        }
        if (++_batchReported == _batchSize) {
            double span = now() - _batchStart;
            t.batchSeconds.push_back(span);
            t.batchIdle.push_back(
                std::max(0.0, span * _workers - _batchHost));
        }
        ScopedSpan span(_tracer, "guidance.source");
        _inner.report(outcome, feedback);
    }

    std::optional<GpuTestPreset>
    presetForSeed(std::uint64_t seed) const override
    {
        return _inner.presetForSeed(seed);
    }

    std::optional<ShardLease>
    leaseForSeed(std::uint64_t seed) const override
    {
        return _inner.leaseForSeed(seed);
    }

    std::optional<PredictTriage>
    predictTriage() const override
    {
        return _inner.predictTriage();
    }

    /** When the first shard started / first batch was requested. */
    double firstShardAt() const { return _firstShardAt.load(); }
    double firstBatchAt() const { return _firstBatchAt; }
    /** Summed wall time of the wrapped ShardSpec::run calls. */
    double shardWall() const { return _shardWall.load(); }
    const ShardTally &tally() const { return _tally; }

  private:
    struct Cell
    {
        ProtocolKind protocol;
        ScopeMode scope;
    };

    ShardSource &_inner;
    Tracer &_tracer;
    unsigned _workers;
    std::unordered_map<std::uint64_t, Cell> _cells;
    std::atomic<double> _firstShardAt{-1.0};
    std::atomic<double> _shardWall{0.0};
    double _firstBatchAt = -1.0;
    ShardTally _tally;
    std::size_t _batchSize = 0, _batchReported = 0;
    double _batchHost = 0.0, _batchStart = 0.0;
};

// ---------------------------------------------------------------------
// Results

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** What one pass (untraced or traced) of a workload produced. */
struct Pass
{
    std::vector<double> setup;      ///< one per set-up measured
    std::vector<double> episodeRate; ///< episodes / wall, per repetition
    std::vector<double> eventRate;   ///< events / CPU s, per repetition
    std::vector<double> wall;        ///< wall after set-up, per rep
    std::vector<std::string> digests; ///< deterministic totals, per rep
    std::size_t attempted = 0;
    /**
     * soak/fleet: shards with an unexpected failure (ShardTally::
     * unexpected); triage: hunts without a verified repro.
     */
    std::size_t failed = 0;
    std::size_t knownFailed = 0; ///< soak/fleet: LRCC false failures
    /**
     * Triage rates pool the whole pass over the calls whose simulated
     * work is visible from outside: the guided campaigns, recordGpuRun
     * and the verifying replayGpuRun. shrinkRepro and predictRaces run
     * their replays internally, so their episodes cannot be counted;
     * their time shows in the trace.* and predict.* layers and in
     * repro_p50_s instead.
     */
    bool pooled = false;
    double pooledEpisodes = 0.0, pooledEvents = 0.0, pooledWall = 0.0,
           pooledCpu = 0.0;
    std::vector<double> reproSeconds; ///< triage: verified hunts
    ShardTally tally;                ///< summed over repetitions

    // Layer figures only the workload itself can see.
    std::vector<double> campaignWall; ///< campaign call spans (wall)
    unsigned threads = 1;
    std::uint64_t leases = 0, releases = 0, dups = 0;
    std::vector<double> journalBytes;
    std::size_t shrinkProbes = 0, shrinkImprovements = 0;
    std::size_t shrinkOriginal = 0, shrinkFinal = 0;
    std::vector<double> shardsToFailure;
    std::vector<double> fileBytes;
    std::size_t predictCandidates = 0, predictVerified = 0,
                predictConfirmed = 0;
    std::uint64_t testerEvents = 0; ///< events of direct tester calls
    double testerSeconds = 0.0;
};

void
addTally(ShardTally &into, const ShardTally &t)
{
    into.shards += t.shards;
    into.failed += t.failed;
    into.unnamed += t.unnamed;
    into.unexpected += t.unexpected;
    into.events += t.events;
    into.episodes += t.episodes;
    into.hostSeconds += t.hostSeconds;
    into.viperEvents += t.viperEvents;
    into.lrccEvents += t.lrccEvents;
    into.viperSeconds += t.viperSeconds;
    into.lrccSeconds += t.lrccSeconds;
    into.rounds += t.rounds;
    if (into.firstFailureShards == 0)
        into.firstFailureShards = t.firstFailureShards;
    into.failures.insert(into.failures.end(), t.failures.begin(),
                         t.failures.end());
    into.batchSeconds.insert(into.batchSeconds.end(),
                             t.batchSeconds.begin(), t.batchSeconds.end());
    into.batchIdle.insert(into.batchIdle.end(), t.batchIdle.begin(),
                          t.batchIdle.end());
}

/** Accounts a direct recordGpuRun/replayGpuRun result (triage). */
void
addTesterRun(Pass &pass, const TesterResult &r)
{
    pass.testerEvents += r.events;
    pass.testerSeconds += r.hostSeconds;
    pass.pooledEpisodes += double(r.episodes);
    pass.pooledEvents += double(r.events);
}

/** Adds one counted call's wall and CPU time to the pooled sums. */
class Counted
{
  public:
    explicit Counted(Pass &pass)
        : _pass(pass), _wall(now()), _cpu(cpuSeconds())
    {
    }
    ~Counted()
    {
        _pass.pooledWall += now() - _wall;
        _pass.pooledCpu += cpuSeconds() - _cpu;
    }
    Counted(const Counted &) = delete;
    Counted &operator=(const Counted &) = delete;

  private:
    Pass &_pass;
    double _wall;
    double _cpu;
};

/**
 * Whether to run repetition @p rep: a traced pass repeats exactly the
 * untraced pass's @p reps; an untraced pass runs at least @p min_reps
 * and then until @p deadline.
 */
bool
moreReps(std::size_t rep, std::size_t reps, std::size_t min_reps,
         double deadline)
{
    return reps ? rep < reps : (rep < min_reps || now() < deadline);
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    std::string outDir = ".";
};

/** Collects failed output checks; any entry makes the run incorrect. */
struct Checks
{
    std::vector<std::string> failed;

    void
    require(bool ok, const std::string &what)
    {
        if (!ok)
            failed.push_back(what);
    }
};

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
    return buf;
}

/** splitmix64: derives independent sub-seeds from the run seed. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Master seed of repetition-independent inputs: kept small and
 * positive so shard seeds stay readable in failure lists.
 */
std::uint64_t
masterSeed(std::uint64_t run_seed, std::uint64_t salt)
{
    return 1 + (mix(run_seed * 1000003ull + salt) % 1000000000ull);
}

// ---------------------------------------------------------------------
// soak

/** campaign_scaling's small-cache shape: 4 CUs, 8 lanes, 30 actions. */
ConfigGenome
soakGenome(ProtocolKind protocol, ScopeMode scope)
{
    GpuTestPreset p;
    p.cacheClass = CacheSizeClass::Small;
    p.system = makeGpuSystemConfig(CacheSizeClass::Small, 4);
    p.tester = makeGpuTesterConfig(30, 4, 10, 1);
    p.tester.variables.numNormalVars = 512;
    p.tester.variables.addrRangeBytes = 1 << 14;
    ConfigGenome g = genomeFromPreset(p);
    g.protocol = protocol;
    g.scopeMode = scope;
    return g;
}

void
runSoak(const Options &opt, Tracer &tracer, Pass &pass, std::size_t reps,
        Checks &checks)
{
    SourceConfig cfg;
    for (ProtocolKind protocol : {ProtocolKind::Viper, ProtocolKind::Lrcc})
        for (ScopeMode scope : {ScopeMode::None, ScopeMode::Scoped})
            cfg.arms.push_back(soakGenome(protocol, scope));
    cfg.scale.lanes = 8;
    cfg.scale.wfsPerCu = 2;
    cfg.scale.numNormalVars = 512;
    cfg.masterSeed = masterSeed(opt.seed, 1);
    // One batch per repetition: the campaign pool starts its threads
    // per batch, and a short-lived pair can share one CPU for its whole
    // life before the scheduler spreads it, which made per-batch wall
    // time bimodal.
    cfg.maxShards = opt.tiny ? 32 : 512;
    cfg.batchSize = cfg.maxShards;
    pass.threads = 2;

    double deadline = now() + opt.seconds;
    for (std::size_t rep = 0; moreReps(rep, reps, 2, deadline); ++rep) {
        double start = now();
        double cpu0 = cpuSeconds();
        SweepSource inner(cfg);
        MeteredSource source(inner, tracer, 2);
        AdaptiveCampaignConfig acfg;
        acfg.jobs = 2;
        acfg.stopOnFailure = false;
        AdaptiveCampaignResult res;
        {
            ScopedSpan span(tracer, "campaign");
            res = runAdaptiveCampaign(source, acfg);
        }
        double end = now();
        double cpu = cpuSeconds() - cpu0;
        double first = source.firstShardAt();
        const ShardTally &t = source.tally();

        pass.setup.push_back(first - start);
        pass.wall.push_back(end - first);
        pass.campaignWall.push_back(end - start);
        pass.episodeRate.push_back(ratio(res.totalEpisodes, end - first));
        pass.eventRate.push_back(ratio(res.totalEvents, cpu));
        std::string failures;
        for (const std::string &f : t.failures)
            failures += ";" + f;
        pass.digests.push_back("events=" + std::to_string(res.totalEvents) +
                               " episodes=" +
                               std::to_string(res.totalEpisodes) +
                               " union=" + hex(res.unionDigest) +
                               " failed=" + std::to_string(t.failed) +
                               failures);
        pass.attempted += t.shards;
        pass.failed += t.unexpected;
        pass.knownFailed += t.failed - t.unexpected;
        addTally(pass.tally, t);

        checks.require(res.shardsRun == cfg.maxShards,
                       "soak: ran " + std::to_string(res.shardsRun) +
                           " of " + std::to_string(cfg.maxShards) +
                           " shards");
        checks.require(t.shards == res.shardsRun &&
                           t.events == res.totalEvents,
                       "soak: decorator tally disagrees with campaign");
        checks.require(t.unnamed == 0,
                       "soak: a failed shard names no class or cell");
    }
}

// ---------------------------------------------------------------------
// fleet

SourceConfig
fleetSource(const Options &opt)
{
    SourceConfig cfg;
    // Table III arms with episodes/WF capped so the longest shard ends
    // well under the coordinator's 2 s steal age: no steal duplicates.
    cfg.arms = tableIIIArms();
    for (ConfigGenome &g : cfg.arms)
        g.episodesPerWf = std::min(g.episodesPerWf, opt.tiny ? 2u : 10u);
    cfg.masterSeed = masterSeed(opt.seed, 2);
    cfg.batchSize = 8;
    cfg.maxShards = opt.tiny ? 8 : 24;
    return cfg;
}

fleet::LocalFleetConfig
fleetConfig(unsigned workers, const std::string &journal)
{
    fleet::LocalFleetConfig cfg;
    cfg.workers = workers;
    cfg.coordinator.campaign.jobs = 1;
    cfg.coordinator.campaign.stopOnFailure = false;
    cfg.coordinator.journalPath = journal;
    return cfg;
}

/** workers=0 aggregates of the fleet source: the byte-equality golden. */
std::string
fleetReference(const Options &opt)
{
    std::string journal = opt.outDir + "/fleet-reference.journal";
    std::filesystem::remove(journal);
    SweepSource source(fleetSource(opt));
    fleet::FleetResult res =
        fleet::runLocalFleet(source, fleetConfig(0, journal));
    std::filesystem::remove(journal);
    return adaptiveAggregatesJson(res.adaptive, "gpu_tester");
}

void
runFleet(const Options &opt, Tracer &tracer, Pass &pass, std::size_t reps,
         const std::string &reference, Checks &checks)
{
    const unsigned workers = 2;
    const SourceConfig cfg = fleetSource(opt);
    const std::string journal = opt.outDir + "/fleet.journal";
    pass.threads = workers;

    double deadline = now() + opt.seconds;
    for (std::size_t rep = 0; moreReps(rep, reps, 2, deadline); ++rep) {
        std::filesystem::remove(journal);
        double start = now();
        double cpu0 = cpuSeconds();
        SweepSource inner(cfg);
        MeteredSource source(inner, tracer, workers);
        bool listen_ok = false;
        fleet::FleetResult res;
        {
            ScopedSpan span(tracer, "campaign");
            res = fleet::runLocalFleet(source, fleetConfig(workers, journal),
                                       &listen_ok);
        }
        double end = now();
        double cpu = cpuSeconds() - cpu0;
        double first = source.firstBatchAt();
        const ShardTally &t = source.tally();
        std::error_code ec;
        auto jbytes = std::filesystem::file_size(journal, ec);

        pass.setup.push_back(first - start);
        pass.wall.push_back(end - first);
        pass.campaignWall.push_back(end - start);
        pass.episodeRate.push_back(
            ratio(res.adaptive.totalEpisodes, end - first));
        pass.eventRate.push_back(ratio(res.adaptive.totalEvents, cpu));
        pass.digests.push_back(
            "events=" + std::to_string(res.adaptive.totalEvents) +
            " episodes=" + std::to_string(res.adaptive.totalEpisodes) +
            " union=" + hex(res.adaptive.unionDigest) +
            " failed=" + std::to_string(t.failed));
        pass.attempted += t.shards;
        pass.failed += t.unexpected;
        pass.knownFailed += t.failed - t.unexpected;
        pass.leases += res.leasesIssued;
        pass.releases += res.releases;
        pass.dups += res.duplicateResults;
        pass.journalBytes.push_back(ec ? 0.0 : double(jbytes));
        addTally(pass.tally, t);

        checks.require(listen_ok && res.workersSeen >= workers &&
                           res.localRuns == 0,
                       "fleet: workers did not run the campaign (seen " +
                           std::to_string(res.workersSeen) + ", local runs " +
                           std::to_string(res.localRuns) + ")");
        checks.require(res.adaptive.shardsRun == cfg.maxShards,
                       "fleet: ran " +
                           std::to_string(res.adaptive.shardsRun) +
                           " of " + std::to_string(cfg.maxShards));
        checks.require(adaptiveAggregatesJson(res.adaptive, "gpu_tester") ==
                           reference,
                       "fleet: aggregates differ from the workers=0 run");
        checks.require(!ec && jbytes > 0, "fleet: journal not written");
    }
    std::filesystem::remove(journal);
}

// ---------------------------------------------------------------------
// triage

/** The failure class each reachable armed fault must produce. */
struct HuntKind
{
    FaultKind fault;
    FailureClass expected;
    CacheSizeClass cache;
};

// DropAcquireInvalidate needs large caches: small L1s evict fast enough
// that natural replacement masks a swallowed flash-invalidate.
const HuntKind huntKinds[] = {
    {FaultKind::LostWriteThrough, FailureClass::ValueMismatch,
     CacheSizeClass::Small},
    {FaultKind::NonAtomicRmw, FailureClass::AtomicViolation,
     CacheSizeClass::Small},
    {FaultKind::DropAcquireInvalidate, FailureClass::ValueMismatch,
     CacheSizeClass::Large},
    {FaultKind::DropWriteAck, FailureClass::Deadlock,
     CacheSizeClass::Small},
};

/** shrink_repro fuzz's tool shape: 4 CUs, 8 lanes, 30 actions. */
ConfigGenome
huntGenome(CacheSizeClass cache)
{
    GpuTestPreset p;
    p.cacheClass = cache;
    p.system = makeGpuSystemConfig(cache, 4);
    p.tester = makeGpuTesterConfig(30, 10, 10, 1);
    p.tester.variables.numNormalVars = 512;
    p.tester.variables.addrRangeBytes = 1 << 14;
    return genomeFromPreset(p);
}

GenomeScale
huntScale(FaultKind fault)
{
    GenomeScale scale;
    scale.lanes = 8;
    scale.wfsPerCu = 2;
    scale.numNormalVars = 512;
    scale.fault = fault;
    // A fault that fires on every opportunity fails the first shard of
    // every hunt; at 10% the rarer classes take a few guided rounds.
    scale.faultTriggerPct = 10;
    return scale;
}

struct TriageSizes
{
    std::size_t maxShards = 96;  ///< campaign cap per hunt
    std::size_t shrinkProbes = 64; ///< probe budget per shrink
    std::size_t predictCandidates = 8;
    std::size_t maxEvents = 1u << 15; ///< events kept per hunt recording
};

/** One hunt; returns seconds to a verified repro, or nullopt. */
std::optional<double>
runHunt(const Options &opt, const TriageSizes &sz, const HuntKind &kind,
        std::uint64_t master, Tracer &tracer, Pass &pass,
        std::string &digest, Checks &checks)
{
    const std::string tag = std::string(faultKindName(kind.fault)) +
                            "/master" + std::to_string(master);
    double start = now();
    ConfigGenome base = huntGenome(kind.cache);
    ConfigGenome more_episodes = base;
    more_episodes.episodesPerWf *= 2;
    ConfigGenome more_actions = base;
    more_actions.actionsPerEpisode *= 2;
    SourceConfig scfg;
    scfg.arms = {base, more_episodes, more_actions};
    scfg.scale = huntScale(kind.fault);
    scfg.masterSeed = master;
    scfg.batchSize = 2;
    scfg.maxShards = sz.maxShards;
    GuidedSource inner(scfg);
    MeteredSource source(inner, tracer, 1);
    AdaptiveCampaignConfig acfg;
    acfg.jobs = 1;
    acfg.stopOnFailure = true;
    AdaptiveCampaignResult res;
    double cpu0 = cpuSeconds();
    {
        ScopedSpan span(tracer, "campaign");
        res = runAdaptiveCampaign(source, acfg);
    }
    // The campaign counts with its CPU time but only its shards' wall
    // time: with one shard per batch, the pool's per-batch thread start
    // and handoff would otherwise dominate the wall time and swing with
    // the host's vCPU wake-up latency.
    pass.pooledCpu += cpuSeconds() - cpu0;
    pass.pooledWall += source.shardWall();
    pass.pooledEpisodes += double(res.totalEpisodes);
    pass.pooledEvents += double(res.totalEvents);
    pass.campaignWall.push_back(now() - start);
    pass.setup.push_back(source.firstShardAt() - start);
    addTally(pass.tally, source.tally());
    digest += " " + tag + ":union=" + hex(res.unionDigest) +
              ",shards=" + std::to_string(res.shardsRun);
    if (!res.firstFailure || !res.failurePreset)
        return std::nullopt;
    pass.shardsToFailure.push_back(double(res.firstFailure->index + 1));

    // The event cap bounds a hunt trace's memory and file size; without
    // it the peak resident set follows the longest failing run of the
    // round and varies with the hunt seeds.
    RecordOptions ro;
    ro.captureEvents = true;
    ro.maxEvents = sz.maxEvents;
    ReproTrace trace;
    {
        ScopedSpan span(tracer, "trace.record");
        Counted counted(pass);
        trace = recordGpuRun(*res.failurePreset, ro);
    }
    addTesterRun(pass, trace.result);
    checks.require(!trace.result.passed &&
                       trace.result.failureClass == res.firstFailureClass,
                   "triage " + tag + ": recording changed the outcome");

    const std::string path = opt.outDir + "/triage.trace";
    ReproTrace loaded;
    bool saved, read;
    {
        ScopedSpan span(tracer, "trace.save");
        saved = saveTraceFile(path, trace);
    }
    {
        ScopedSpan span(tracer, "trace.load");
        read = loadTraceFile(path, loaded);
    }
    std::error_code ec;
    pass.fileBytes.push_back(double(std::filesystem::file_size(path, ec)));
    std::filesystem::remove(path);
    checks.require(saved && read &&
                       loaded.schedule.size() == trace.schedule.size() &&
                       loaded.result.failureClass ==
                           trace.result.failureClass &&
                       loaded.events.size() == trace.events.size(),
                   "triage " + tag + ": DRFTRC01 round-trip differs");

    ShrinkOptions so;
    so.maxProbes = sz.shrinkProbes;
    ShrinkStats stats;
    EpisodeSchedule shrunk;
    {
        ScopedSpan span(tracer, "trace.shrink");
        shrunk = shrinkRepro(loaded, so, &stats);
    }
    pass.shrinkProbes += stats.probes;
    pass.shrinkImprovements += stats.improvements;
    pass.shrinkOriginal += stats.originalEpisodes;
    pass.shrinkFinal += stats.shrunkEpisodes;

    TesterResult replayed;
    {
        ScopedSpan span(tracer, "trace.replay");
        Counted counted(pass);
        replayed = replayGpuRun(loaded, shrunk);
    }
    addTesterRun(pass, replayed);
    digest += ",class=" + std::string(failureClassName(
                              trace.result.failureClass)) +
              ",shrunk=" + std::to_string(shrunk.size());

    bool verified = !replayed.passed &&
                    replayed.failureClass == kind.expected &&
                    trace.result.failureClass == kind.expected;
    checks.require(verified, "triage " + tag + ": class " +
                                 failureClassName(trace.result.failureClass) +
                                 " -> replay " +
                                 failureClassName(replayed.failureClass) +
                                 ", armed fault expects " +
                                 failureClassName(kind.expected));
    if (!verified)
        return std::nullopt;
    return now() - start;
}

/** Predictive pass over one recorded fault-free scoped run. */
void
runPredict(const TriageSizes &sz, std::uint64_t seed, Tracer &tracer,
           Pass &pass, std::string &digest)
{
    // 4 episodes/WF keeps the recording (uncapped: the HB model needs
    // every sync marker) under the hunts' event cap, so the peak resident
    // set does not follow the predict seed.
    ConfigGenome g = huntGenome(CacheSizeClass::Large);
    g.scopeMode = ScopeMode::Scoped;
    g.episodesPerWf = 4;
    GpuTestPreset preset =
        genomeToPreset(g, huntScale(FaultKind::None), seed);
    RecordOptions ro;
    ro.captureEvents = true;
    ReproTrace trace;
    {
        ScopedSpan span(tracer, "trace.record");
        Counted counted(pass);
        trace = recordGpuRun(preset, ro);
    }
    addTesterRun(pass, trace.result);
    std::size_t hb_size;
    {
        ScopedSpan span(tracer, "predict.hb");
        hb_size = HbModel::build(trace).size();
    }
    PredictOptions po;
    po.verify = true;
    po.maxCandidates = sz.predictCandidates;
    PredictReport report;
    {
        ScopedSpan span(tracer, "predict.races");
        report = predictRaces(trace, po);
    }
    pass.predictCandidates += report.candidates;
    pass.predictVerified += report.races.size();
    pass.predictConfirmed += report.confirmedCount();
    digest += " predict" + std::to_string(seed) + ":hb=" +
              std::to_string(hb_size) + ",cand=" +
              std::to_string(report.candidates) + ",conf=" +
              std::to_string(report.confirmedCount());
}

void
runTriage(const Options &opt, Tracer &tracer, Pass &pass, std::size_t reps,
          Checks &checks)
{
    TriageSizes sz;
    if (opt.tiny) {
        sz.shrinkProbes = 8;
        sz.predictCandidates = 2;
    }
    pass.threads = 1;
    double deadline = now() + opt.seconds;
    // A repetition is one round: a hunt for every reachable FaultKind
    // plus one predictive pass, all seeded from (run seed, round). Its
    // per-round rates cover the counted calls, like the pooled ones.
    for (std::size_t rep = 0; moreReps(rep, reps, 1, deadline); ++rep) {
        double start = now();
        pass.pooled = true;
        double episodes0 = pass.pooledEpisodes, events0 = pass.pooledEvents;
        double wall0 = pass.pooledWall, cpu0 = pass.pooledCpu;
        std::string digest;
        for (const HuntKind &kind : huntKinds) {
            std::uint64_t master =
                masterSeed(opt.seed, (rep << 4) | unsigned(kind.fault));
            std::optional<double> secs = runHunt(
                opt, sz, kind, master, tracer, pass, digest, checks);
            ++pass.attempted;
            if (secs)
                pass.reproSeconds.push_back(*secs);
            else
                ++pass.failed;
        }
        runPredict(sz, masterSeed(opt.seed, (rep << 4) | 15), tracer, pass,
                   digest);
        pass.wall.push_back(now() - start);
        pass.episodeRate.push_back(ratio(pass.pooledEpisodes - episodes0,
                                         pass.pooledWall - wall0));
        pass.eventRate.push_back(
            ratio(pass.pooledEvents - events0, pass.pooledCpu - cpu0));
        pass.digests.push_back(digest);
        if (opt.tiny)
            break;
    }
}

// ---------------------------------------------------------------------
// Reporting

std::vector<Metric>
endToEnd(const Pass &p)
{
    return {
        {"setup_s", median(p.setup), "s"},
        {"episodes_per_s",
         p.pooled ? ratio(p.pooledEpisodes, p.pooledWall)
                  : median(p.episodeRate),
         "1/s"},
        {"events_per_cpu_s",
         p.pooled ? ratio(p.pooledEvents, p.pooledCpu) : median(p.eventRate),
         "1/s"},
        {"peak_rss_mb", peakRssMb(), "MiB"},
    };
}

/**
 * Traced over untraced wall time, minus one: the median over
 * repetitions, which pair up because both passes run the same inputs.
 */
double
tracingOverhead(const Pass &untraced, const Pass &traced)
{
    std::vector<double> ratios;
    for (std::size_t i = 0;
         i < std::min(untraced.wall.size(), traced.wall.size()); ++i)
        ratios.push_back(ratio(traced.wall[i], untraced.wall[i]) - 1.0);
    return median(ratios);
}

std::vector<Metric>
perLayer(const Pass &untraced, const Pass &traced, const Tracer &tracer)
{
    auto tot = tracer.totals();
    auto self = [&](const char *name) { return tot[name].self; };
    auto total = [&](const char *name) { return tot[name].total; };
    auto count = [&](const char *name) { return double(tot[name].count); };
    const Pass &p = traced;
    const ShardTally &t = p.tally;

    double run_s = t.hostSeconds + p.testerSeconds;
    double events = double(t.events + p.testerEvents);
    double campaign_wall = sum(p.campaignWall);
    double shard_span = total("shard");
    double shrink_accept = ratio(double(p.shrinkImprovements),
                                 double(p.shrinkProbes));

    return {
        {"tester.run_s", run_s, "s"},
        {"tester.events", events, "count"},
        {"tester.events_per_run_s", ratio(events, run_s), "1/s"},
        {"tester.viper.events_per_run_s",
         ratio(double(t.viperEvents), t.viperSeconds), "1/s"},
        {"tester.lrcc.events_per_run_s",
         ratio(double(t.lrccEvents), t.lrccSeconds), "1/s"},
        {"system.build_s",
         shard_span > 0.0 ? shard_span - t.hostSeconds : 0.0, "s"},
        {"campaign.busy_frac",
         ratio(shard_span, campaign_wall * p.threads), "ratio"},
        {"campaign.idle_s",
         shard_span > 0.0
             ? std::max(0.0, campaign_wall * p.threads - shard_span)
             : 0.0,
         "s"},
        {"campaign.shards", double(t.shards), "count"},
        {"campaign.failed", double(t.failed), "count"},
        {"fleet.setup_s", p.leases ? median(p.setup) : 0.0, "s"},
        {"fleet.batch_p50_s", p.leases ? median(t.batchSeconds) : 0.0, "s"},
        {"fleet.barrier_idle_s", p.leases ? sum(t.batchIdle) : 0.0, "s"},
        {"fleet.worker_busy_frac",
         p.leases ? ratio(t.hostSeconds, sum(p.wall) * p.threads) : 0.0,
         "ratio"},
        {"fleet.leases", double(p.leases), "count"},
        {"fleet.releases", double(p.releases), "count"},
        {"fleet.dup_results", double(p.dups), "count"},
        {"fleet.useful_frac",
         p.leases ? ratio(double(t.shards), double(p.leases)) : 0.0,
         "ratio"},
        {"fleet.journal_bytes", median(p.journalBytes), "bytes"},
        {"guidance.source_s", self("guidance.source"), "s"},
        {"guidance.rounds", double(t.rounds), "count"},
        {"guidance.shards_to_failure",
         p.shardsToFailure.empty() ? double(t.firstFailureShards)
                                   : median(p.shardsToFailure),
         "count"},
        {"trace.record_s", self("trace.record"), "s"},
        {"trace.replay_s", self("trace.replay"), "s"},
        {"trace.replays", count("trace.replay"), "count"},
        {"trace.io_s", self("trace.save") + self("trace.load"), "s"},
        {"trace.file_bytes", median(p.fileBytes), "bytes"},
        {"trace.shrink_s", self("trace.shrink"), "s"},
        {"trace.shrink_probes", double(p.shrinkProbes), "count"},
        {"trace.shrink_accept_frac", shrink_accept, "ratio"},
        {"trace.shrink_ratio",
         ratio(double(p.shrinkFinal), double(p.shrinkOriginal)), "ratio"},
        {"predict.hb_s", self("predict.hb"), "s"},
        {"predict.verify_s", self("predict.races"), "s"},
        {"predict.candidates", double(p.predictCandidates), "count"},
        {"predict.confirmed_frac",
         ratio(double(p.predictConfirmed), double(p.predictVerified)),
         "ratio"},
        {"fail_frac",
         ratio(double(untraced.failed + untraced.knownFailed),
               double(untraced.attempted)),
         "ratio"},
        {"repro_p50_s", median(untraced.reproSeconds), "s"},
        {"repro_samples", double(untraced.reproSeconds.size()), "count"},
        {"tracing.overhead_frac", tracingOverhead(untraced, traced), "ratio"},
    };
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
jsonStrings(const std::vector<std::string> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            out += ',';
        out += jsonString(v[i]);
    }
    return out + "]";
}

std::string
jsonList(const std::vector<double> &v)
{
    std::string out = "[";
    char buf[40];
    for (std::size_t i = 0; i < v.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%s%.9g", i ? "," : "", v[i]);
        out += buf;
    }
    return out + "]";
}

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i], val = argv[i + 1];
        if (flag == "--workload")
            opt.workload = val;
        else if (flag == "--seed")
            opt.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            opt.seconds = std::strtod(val.c_str(), nullptr);
        else if (flag == "--trace")
            opt.trace = val == "1";
        else if (flag == "--size")
            opt.tiny = val == "tiny";
        else if (flag == "--out-dir")
            opt.outDir = val;
        else {
            std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
            std::exit(2);
        }
    }
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseOptions(argc, argv);
    if (opt.workload != "soak" && opt.workload != "fleet" &&
        opt.workload != "triage") {
        std::fprintf(stderr, "usage: drfbench --workload soak|fleet|triage "
                             "--seed N --seconds S --trace 0|1 "
                             "[--size full|tiny] [--out-dir DIR]\n");
        return 2;
    }
    std::filesystem::create_directories(opt.outDir);

    const double probe_before = hostProbe();
    Checks checks;
    Tracer tracer;
    std::string reference;
    if (opt.workload == "fleet")
        reference = fleetReference(opt);

    auto runPass = [&](Pass &pass, std::size_t reps) {
        if (opt.workload == "soak")
            runSoak(opt, tracer, pass, reps, checks);
        else if (opt.workload == "fleet")
            runFleet(opt, tracer, pass, reps, reference, checks);
        else
            runTriage(opt, tracer, pass, reps, checks);
    };

    Pass untraced;
    runPass(untraced, 0);
    for (std::size_t i = 1; i < untraced.digests.size(); ++i) {
        if (opt.workload != "triage")
            checks.require(untraced.digests[i] == untraced.digests[0],
                           opt.workload + ": repetition " +
                               std::to_string(i) + " totals differ: " +
                               untraced.digests[i] + " vs " +
                               untraced.digests[0]);
    }

    std::vector<Metric> metrics;
    Pass traced;
    if (!opt.trace) {
        metrics = endToEnd(untraced);
    } else {
        tracer.setEnabled(true);
        runPass(traced, untraced.digests.size());
        checks.require(traced.digests == untraced.digests,
                       opt.workload +
                           ": traced totals differ from untraced totals");
        metrics = perLayer(untraced, traced, tracer);
        tracer.writeChrome(opt.outDir + "/spans-" + opt.workload + ".json");
        std::fprintf(stderr,
                     "%s: traced totals %s untraced (%zu repetitions), "
                     "tracing overhead %+.2f%% of wall\n",
                     opt.workload.c_str(),
                     traced.digests == untraced.digests ? "==" : "!=",
                     untraced.digests.size(),
                     100.0 * tracingOverhead(untraced, traced));
    }
    for (const std::string &d : untraced.digests)
        std::fprintf(stderr, "%s totals: %s\n", opt.workload.c_str(),
                     d.c_str());
    for (const std::string &f : untraced.tally.failures)
        std::fprintf(stderr, "%s failed shard: %s\n", opt.workload.c_str(),
                     f.c_str());
    for (const std::string &c : checks.failed)
        std::fprintf(stderr, "CHECK FAILED: %s\n", c.c_str());

    std::string out = "{\"correct\":";
    out += checks.failed.empty() ? "true" : "false";
    out += ",\"attempted\":" + std::to_string(untraced.attempted);
    out += ",\"failed\":" + std::to_string(untraced.failed);
    out += ",\"metrics\":{";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        std::snprintf(buf, sizeof buf, "%.17g", v);
        if (i)
            out += ',';
        out += jsonString(metrics[i].name);
        out += ":{\"value\":";
        out += buf;
        out += ",\"unit\":" + jsonString(metrics[i].unit) + "}";
    }
    out += "},\"checks\":" + jsonStrings(checks.failed);
    std::snprintf(buf, sizeof buf, "[%.6g,%.6g]", probe_before, hostProbe());
    out += ",\"detail\":{\"host_probe_loads_per_s\":";
    out += buf;
    out += ",\"repetitions\":" + std::to_string(untraced.digests.size());
    out += ",\"setup_s\":" + jsonList(untraced.setup);
    out += ",\"wall_s\":" + jsonList(untraced.wall);
    out += ",\"episodes_per_s\":" + jsonList(untraced.episodeRate);
    out += ",\"events_per_cpu_s\":" + jsonList(untraced.eventRate);
    out += ",\"repro_s\":" + jsonList(untraced.reproSeconds);
    out += ",\"known_false_failures\":" +
           std::to_string(untraced.knownFailed);
    out += ",\"failures\":" + jsonStrings(untraced.tally.failures) + "}}";
    std::printf("%s\n", out.c_str());
    return 0;
}
