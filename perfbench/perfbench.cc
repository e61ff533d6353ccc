/**
 * @file
 * The prefsim benchmark program: one process runs one workload for a
 * host-time budget and writes its metrics, the simulated fingerprint of
 * every point, and its host facts as one JSON document.
 *
 *   prefsim_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                     --workdir DIR --out FILE [--refs N]
 *
 * A run repeats *passes* while the next one should end within S
 * seconds (at least one; two when traced). A pass builds
 * every simulation input (the set-up phase, reported as setup_s) and
 * then runs the timed phase (reported as wall_s). Every pass must
 * reproduce the first pass's fingerprints exactly, and one designated
 * point per workload is re-simulated under the cycle-loop oracle after
 * the passes. With --trace 1 every other pass records spans around the
 * calls into each layer; the per-layer metrics are their self times.
 * --refs overrides the per-processor trace length (smoke runs only).
 * Single-worker workloads pin each simulation to the next of the
 * process's CPUs in turn (see RotatedCpu).
 *
 * perfbench/run.py builds this program, validates the observer
 * documents, compares fingerprints across processes and prints the
 * result line; perfbench/README.md documents workloads and metrics.
 */

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "core/experiment.hh"
#include "core/paper_reference.hh"
#include "core/result_io.hh"
#include "core/sweep.hh"
#include "obs/obs.hh"
#include "prefetch/inserter.hh"
#include "sim/simulator.hh"
#include "trace/trace_io_binary.hh"
#include "trace/workload.hh"
#include "verify/trace_lint.hh"

namespace fs = std::filesystem;
using namespace prefsim;
using Clock = std::chrono::steady_clock;

namespace
{

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

/** Interval of the time series recorded on trace_file_observed. */
constexpr Cycle kSampleInterval = 1000;

double
secondsSince(Clock::time_point origin, Clock::time_point t)
{
    return std::chrono::duration<double>(t - origin).count();
}

// ---------------------------------------------------------------------
// Spans

/** One timed call into a layer, or one phase of the benchmark. */
struct Span
{
    std::string name;
    /** Shared by the spans of one simulation point: "mp3d" for its
     *  trace, "mp3d/PREF" for its annotation, "mp3d/PREF@32" for its
     *  simulation. Empty for benchmark phases. */
    std::string point;
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
};

/**
 * Spans of one pass, kept in memory. Untraced passes record only the
 * host time of each simulation (point_s); traced passes record a span
 * around every benchmark phase and every layer call. simulate() runs
 * on SweepEngine's worker threads, hence the mutex.
 */
class Recorder
{
  public:
    Recorder(Clock::time_point origin, bool traced)
        : origin_(origin), traced_(traced)
    {
    }

    bool traced() const { return traced_; }

    /** Open a span under the innermost open span of the main thread
     *  (traced passes only; returns -1 otherwise). */
    int
    open(const std::string &name, const std::string &point)
    {
        if (!traced_)
            return -1;
        std::lock_guard<std::mutex> lock(mu_);
        Span s;
        s.name = name;
        s.point = point;
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.start = secondsSince(origin_, Clock::now());
        spans_.push_back(std::move(s));
        const int id = static_cast<int>(spans_.size()) - 1;
        stack_.push_back(id);
        return id;
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        std::lock_guard<std::mutex> lock(mu_);
        spans_[static_cast<std::size_t>(id)].end =
            secondsSince(origin_, Clock::now());
        stack_.pop_back();
    }

    /** A finished simulation of @p trace, possibly on a worker thread. */
    void
    simulation(const ParallelTrace *trace, Cycle transfer,
               Clock::time_point start, Clock::time_point end)
    {
        std::lock_guard<std::mutex> lock(mu_);
        const double s = secondsSince(origin_, start);
        const double e = secondsSince(origin_, end);
        pointSeconds_.push_back(e - s);
        if (traced_) {
            const auto it = names_.find(trace);
            Span span;
            span.name = "sim.simulate";
            span.point = (it == names_.end() ? std::string("?")
                                             : it->second) +
                         "@" + std::to_string(transfer);
            span.parent = stack_.empty() ? -1 : stack_.back();
            span.start = s;
            span.end = e;
            spans_.push_back(std::move(span));
        }
    }

    /** Register the label prefix ("mp3d/PREF") under which simulations
     *  of @p trace are traced. Call before the simulations start. */
    void
    name(const ParallelTrace *trace, const std::string &prefix)
    {
        names_[trace] = prefix;
    }

    const std::vector<Span> &spans() const { return spans_; }
    const std::vector<double> &pointSeconds() const
    {
        return pointSeconds_;
    }

  private:
    Clock::time_point origin_;
    bool traced_;
    std::mutex mu_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
    std::vector<double> pointSeconds_;
    std::map<const ParallelTrace *, std::string> names_;
};

/** The recorder of the pass in progress; null outside passes. */
Recorder *g_recorder = nullptr;

/**
 * CPUs that the simulations of a single-worker run take turns on;
 * empty when the run does not rotate. On a shared host each vCPU's
 * speed drifts on its own for seconds to minutes, and the scheduler
 * leaves a lone thread on one vCPU, so a run's timings would follow
 * that one vCPU. Pinning each simulation to the next CPU in turn makes
 * every pass sample all of them.
 */
std::vector<int> g_rotateCpus;
std::atomic<std::size_t> g_nextCpu{0};

/** Pins the calling thread to the next rotation CPU for its lifetime,
 *  then restores the thread's previous affinity. */
class RotatedCpu
{
  public:
    RotatedCpu()
    {
        if (g_rotateCpus.empty() ||
            pthread_getaffinity_np(pthread_self(), sizeof(saved_),
                                   &saved_) != 0)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(g_rotateCpus[g_nextCpu++ % g_rotateCpus.size()], &one);
        pinned_ = pthread_setaffinity_np(pthread_self(), sizeof(one),
                                         &one) == 0;
    }
    ~RotatedCpu()
    {
        if (pinned_)
            pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
    }
    RotatedCpu(const RotatedCpu &) = delete;
    RotatedCpu &operator=(const RotatedCpu &) = delete;

  private:
    cpu_set_t saved_{};
    bool pinned_ = false;
};

class ScopedSpan
{
  public:
    explicit ScopedSpan(const std::string &name,
                        const std::string &point = {})
        : id_(g_recorder ? g_recorder->open(name, point) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (g_recorder)
            g_recorder->close(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    int id_;
};

} // namespace

// Every call of prefsim::simulate in this program, including the calls
// SweepEngine makes on its worker threads, is linked to the wrapper
// below (perfbench/build.cmake passes --wrap to the linker), so the
// benchmark times each simulation from outside the simulator.
namespace prefsim
{
SimStats realSimulate(const ParallelTrace &trace, const SimConfig &config)
    __asm__("__real__ZN7prefsim8simulateERKNS_13ParallelTraceERKNS_9SimConfigE");
SimStats wrappedSimulate(const ParallelTrace &trace,
                         const SimConfig &config)
    __asm__("__wrap__ZN7prefsim8simulateERKNS_13ParallelTraceERKNS_9SimConfigE");

SimStats
wrappedSimulate(const ParallelTrace &trace, const SimConfig &config)
{
    Recorder *rec = g_recorder;
    const RotatedCpu cpu;
    const auto start = Clock::now();
    SimStats stats = realSimulate(trace, config);
    const auto end = Clock::now();
    if (rec)
        rec->simulation(&trace, config.timing.dataTransfer, start, end);
    return stats;
}
} // namespace prefsim

namespace
{

// ---------------------------------------------------------------------
// Workloads

struct OraclePoint
{
    WorkloadKind app;
    Strategy strategy;
    Cycle transfer;
};

/** One benchmark workload (see README.md for why each was chosen). */
struct Workload
{
    std::string name;
    std::vector<WorkloadKind> apps;
    std::vector<Strategy> strategies;
    std::vector<Cycle> transfers;
    unsigned procs;
    std::uint64_t refsPerProc;
    /** SweepEngine workers; 0 = one per hardware thread. */
    unsigned workers;
    /** Traces go through binary trace files, lint and the observers
     *  instead of SweepEngine. */
    bool viaFiles;
    OraclePoint oracle;
};

std::vector<Workload>
allWorkloadDefs()
{
    using WK = WorkloadKind;
    using S = Strategy;
    return {
        {"paper_grid", allWorkloads(), allStrategies(), {4, 8, 16, 32},
         16, 100000, 0, false, {WK::Mp3d, S::PREF, 32}},
        {"trace_file_observed", {WK::Mp3d, WK::Topopt},
         {S::NP, S::PREF, S::PWS}, {8, 32}, 16, 100000, 1, true,
         {WK::Topopt, S::PWS, 8}},
    };
}

/** Everything one pass produced. */
struct PassResult
{
    bool traced = false;
    double setupSeconds = 0.0;
    double wallSeconds = 0.0;
    /** Simulation results in declaration order. */
    std::vector<ExperimentResult> results;
    std::vector<AnnotateStats> annotations;
    std::uint64_t generatedRefs = 0;
    std::uint64_t lintFindings = 0;
    std::uint64_t lintErrors = 0;
    std::uint64_t traceFileBytes = 0;
    std::uint64_t obsDocBytes = 0;
    unsigned workers = 1;
    std::vector<Span> spans;
    std::vector<double> pointSeconds;
    /** Fingerprints of the unobserved re-simulations (traced
     *  trace_file_observed passes only), by label. */
    std::map<std::string, std::string> unobserved;
};

ExperimentSpec
makeSpec(const WorkloadParams &params, WorkloadKind app, Strategy strategy,
         Cycle transfer)
{
    ExperimentSpec spec;
    spec.workload = app;
    spec.strategy = strategy;
    spec.dataTransfer = transfer;
    spec.params = params;
    return spec;
}

/** Stable digest of every SimStats and AnnotateStats counter. */
std::string
fingerprint(const ExperimentResult &r)
{
    std::ostringstream os;
    writeResultJson(os, r, "perfbench");
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(os.str())));
    return buf;
}

std::string
prefixOf(WorkloadKind app, Strategy s)
{
    return workloadName(app) + "/" + strategyName(s);
}

/** paper_grid: set-up generates and annotates through
 *  SweepEngine's stage cache; the timed phase is one runPending(). */
void
runSweepPass(const Workload &w, const WorkloadParams &params,
             Recorder &rec, PassResult &out)
{
    SweepOptions opts;
    opts.jobs = w.workers ? w.workers : std::thread::hardware_concurrency();
    opts.useCache = false;
    out.workers = opts.jobs;
    SweepEngine engine(params, CacheGeometry::paperDefault(), opts);

    auto t0 = Clock::now();
    {
        ScopedSpan setup("bench.setup");
        for (const WorkloadKind app : w.apps) {
            {
                ScopedSpan s("trace.generate", workloadName(app));
                out.generatedRefs += engine.baseTrace(app).totalDemandRefs();
            }
            for (const Strategy st : w.strategies) {
                ScopedSpan s("prefetch.annotate", prefixOf(app, st));
                const AnnotatedTrace &ann =
                    engine.annotated(app, false, st);
                rec.name(&ann.trace, prefixOf(app, st));
            }
        }
    }
    auto t1 = Clock::now();
    {
        ScopedSpan timed("bench.timed");
        ScopedSpan sweep("core.sweep");
        engine.enqueueGrid(w.apps, {false}, w.strategies, w.transfers);
        engine.runPending();
    }
    auto t2 = Clock::now();
    out.setupSeconds = secondsSince(t0, t1);
    out.wallSeconds = secondsSince(t1, t2);

    for (const WorkloadKind app : w.apps) {
        for (const Strategy st : w.strategies)
            out.annotations.push_back(
                engine.annotated(app, false, st).stats);
        for (const Strategy st : w.strategies) {
            for (const Cycle t : w.transfers)
                out.results.push_back(engine.run(app, false, st, t));
        }
    }
}

std::uint64_t
fileBytes(const fs::path &p)
{
    std::error_code ec;
    const auto n = fs::file_size(p, ec);
    return ec ? 0 : static_cast<std::uint64_t>(n);
}

/** trace_file_observed: set-up writes binary trace files; the timed
 *  phase reads, lints, annotates and simulates them with every
 *  recorder on, then writes the three observer documents. */
void
runFilePass(const Workload &w, const WorkloadParams &params,
            const fs::path &workdir, Recorder &rec, PassResult &out)
{
    const fs::path obsDir = workdir / "obs";
    fs::create_directories(obsDir);

    auto t0 = Clock::now();
    {
        ScopedSpan setup("bench.setup");
        for (const WorkloadKind app : w.apps) {
            std::optional<ParallelTrace> trace;
            {
                ScopedSpan s("trace.generate", workloadName(app));
                trace.emplace(generateWorkload(app, params));
            }
            out.generatedRefs += trace->totalDemandRefs();
            ScopedSpan s("trace.write", workloadName(app));
            writeTraceBinaryFile(
                (workdir / (workloadName(app) + ".pfs")).string(), *trace);
        }
    }
    auto t1 = Clock::now();

    // Kept beyond the timed phase for the unobserved re-simulations.
    std::vector<std::pair<ExperimentSpec, const AnnotatedTrace *>> points;
    std::vector<std::unique_ptr<AnnotatedTrace>> annotated;
    {
        ScopedSpan timed("bench.timed");
        ObsContext ctx;
        for (const WorkloadKind app : w.apps) {
            const std::string path =
                (workdir / (workloadName(app) + ".pfs")).string();
            std::optional<ParallelTrace> trace;
            {
                ScopedSpan s("trace.read", workloadName(app));
                trace.emplace(readTraceAutoFile(path));
            }
            out.traceFileBytes += fileBytes(path);
            {
                ScopedSpan s("verify.lint", workloadName(app));
                const verify::TraceLintReport lint =
                    verify::lintTrace(*trace);
                out.lintFindings += lint.findings.size();
                if (!lint.ok())
                    ++out.lintErrors;
            }
            for (const Strategy st : w.strategies) {
                const ExperimentSpec base =
                    makeSpec(params, app, st, w.transfers.front());
                {
                    ScopedSpan s("prefetch.annotate", prefixOf(app, st));
                    annotated.push_back(std::make_unique<AnnotatedTrace>(
                        annotateTrace(*trace, base.annotationParams(),
                                      base.geometry)));
                }
                const AnnotatedTrace &ann = *annotated.back();
                rec.name(&ann.trace, prefixOf(app, st));
                out.annotations.push_back(ann.stats);
                for (const Cycle t : w.transfers) {
                    const ExperimentSpec spec =
                        makeSpec(params, app, st, t);
                    SimConfig cfg = spec.simConfig();
                    cfg.obs = &ctx;
                    cfg.traceLabel = spec.label();
                    cfg.sampleInterval = kSampleInterval;
                    cfg.profile = true;
                    cfg.critpath = true;
                    ExperimentResult r;
                    r.spec = spec;
                    r.annotate = ann.stats;
                    r.sim = simulate(ann.trace, cfg);
                    out.results.push_back(std::move(r));
                    points.emplace_back(spec, &ann);
                }
            }
        }
        ScopedSpan s("obs.write");
        const auto writeDoc = [&](const char *file, const auto &store) {
            const fs::path p = obsDir / file;
            {
                std::ofstream os(p, std::ios::binary | std::ios::trunc);
                store.writeJson(os);
            }
            out.obsDocBytes += fileBytes(p);
        };
        writeDoc("profile.json", ctx.profile);
        writeDoc("critpath.json", ctx.critpath);
        writeDoc("timeseries.json", ctx.timeseries);
    }
    auto t2 = Clock::now();
    out.setupSeconds = secondsSince(t0, t1);
    out.wallSeconds = secondsSince(t1, t2);

    // obs.overhead_ratio needs the same points simulated unobserved.
    if (rec.traced()) {
        ScopedSpan s("bench.unobserved");
        for (const auto &[spec, ann] : points) {
            ExperimentResult r;
            r.spec = spec;
            r.annotate = ann->stats;
            r.sim = simulate(ann->trace, spec.simConfig());
            out.unobserved[spec.label()] = fingerprint(r);
        }
    }
}

// ---------------------------------------------------------------------
// Metrics

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linear-interpolated percentile @p q in [0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/** The root benchmark span ("bench.setup", "bench.timed", ...) above
 *  span @p i. */
const std::string &
phaseOf(const std::vector<Span> &spans, int i)
{
    while (spans[static_cast<std::size_t>(i)].parent >= 0)
        i = spans[static_cast<std::size_t>(i)].parent;
    return spans[static_cast<std::size_t>(i)].name;
}

/** Self time of every span: its duration minus the union of its
 *  children's intervals (children overlap on SweepEngine workers). */
std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const Span &s : spans) {
        if (s.parent >= 0)
            kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                  s.end);
    }
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, curStart = 0.0, curEnd = -1.0;
        for (const auto &[a0, b0] : iv) {
            const double a = std::max(a0, spans[i].start);
            const double b = std::min(b0, spans[i].end);
            if (b <= a)
                continue;
            if (a > curEnd) {
                if (curEnd > curStart)
                    covered += curEnd - curStart;
                curStart = a;
                curEnd = b;
            } else {
                curEnd = std::max(curEnd, b);
            }
        }
        if (curEnd > curStart)
            covered += curEnd - curStart;
        self[i] = (spans[i].end - spans[i].start) - covered;
    }
    return self;
}

/** Per-layer self time of one traced pass, summed by span name over
 *  the workload's own phases (set-up and timed). */
std::map<std::string, double>
layerSeconds(const std::vector<Span> &spans, const std::string &phase = {})
{
    const std::vector<double> self = selfTimes(spans);
    std::map<std::string, double> by;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::string &ph = phaseOf(spans, static_cast<int>(i));
        const bool inWorkload =
            phase.empty() ? (ph == "bench.setup" || ph == "bench.timed")
                          : ph == phase;
        if (inWorkload && spans[i].name.rfind("bench.", 0) != 0)
            by[spans[i].name] += self[i];
    }
    return by;
}

/** Simulated statistics of one pass (identical in every pass). */
struct SimulatedTotals
{
    std::uint64_t demandRefs = 0, cycles = 0, prefetches = 0,
                  prefetchMisses = 0, busWaitDemand = 0,
                  busWaitPrefetch = 0, cpuMisses = 0, invalMisses = 0,
                  falseSharing = 0, prefetchedUnused = 0, inserted = 0,
                  annotatedDemand = 0;
    double busUtil = 0.0, procUtil = 0.0;
};

SimulatedTotals
simulatedTotals(const PassResult &p)
{
    SimulatedTotals t;
    for (const ExperimentResult &r : p.results) {
        const SimStats &s = r.sim;
        const MissBreakdown m = s.totalMisses();
        t.demandRefs += s.totalDemandRefs();
        t.cycles += s.cycles;
        t.prefetches += s.totalPrefetchesExecuted();
        t.prefetchMisses += s.totalPrefetchMisses();
        t.busWaitDemand += s.bus.queueWaitDemand;
        t.busWaitPrefetch += s.bus.queueWaitPrefetch;
        t.cpuMisses += m.cpu();
        t.invalMisses += m.invalidation();
        t.falseSharing += m.falseSharing;
        t.prefetchedUnused += m.nonSharingPrefetched + m.invalPrefetched;
        t.busUtil += s.busUtilization();
        t.procUtil += s.avgProcUtilization();
    }
    const double n = static_cast<double>(p.results.size());
    t.busUtil /= n;
    t.procUtil /= n;
    for (const AnnotateStats &a : p.annotations) {
        t.inserted += a.inserted;
        t.annotatedDemand += a.demandRefs;
    }
    return t;
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/** Simulated-vs-paper comparison of one pass's results. */
struct Fidelity
{
    double busUtilMae = 0.0;
    double speedupExcess = 0.0;
    std::vector<std::string> lines;
};

Fidelity
paperFidelity(const PassResult &p)
{
    Fidelity f;
    std::map<std::string, Cycle> npCycles;
    for (const ExperimentResult &r : p.results) {
        if (r.spec.strategy == Strategy::NP)
            npCycles[workloadName(r.spec.workload) + "@" +
                     std::to_string(r.spec.dataTransfer)] = r.sim.cycles;
    }
    double errSum = 0.0;
    unsigned errCount = 0;
    std::ostringstream os;
    os << std::fixed << std::setprecision(3);
    for (const ExperimentResult &r : p.results) {
        const auto ref = paper::busUtilization(
            r.spec.workload, r.spec.strategy, r.spec.dataTransfer);
        const double util = r.sim.busUtilization();
        os.str({});
        os << "  " << std::left << std::setw(14) << r.spec.label()
           << " bus_util " << util;
        if (ref) {
            errSum += std::abs(util - *ref);
            ++errCount;
            os << " (paper " << *ref << ")";
        }
        if (r.spec.strategy != Strategy::NP) {
            const bool pws = r.spec.strategy == Strategy::PWS;
            const double lo = pws ? paper::kMinSpeedupPws
                                  : paper::kMinSpeedupNonPws;
            const double hi = pws ? paper::kMaxSpeedupPws
                                  : paper::kMaxSpeedupNonPws;
            const Cycle np =
                npCycles.at(workloadName(r.spec.workload) + "@" +
                            std::to_string(r.spec.dataTransfer));
            const double speedup = static_cast<double>(np) /
                                   static_cast<double>(r.sim.cycles);
            // Ratio to the nearer band edge: above 1 outside the band
            // (1.33 = a third beyond it), below 1 inside, never 0.
            const double excess = std::max(speedup / hi, lo / speedup);
            f.speedupExcess = std::max(f.speedupExcess, excess);
            os << "  speedup " << speedup << " (paper band [" << lo
               << ", " << hi << "], edge ratio " << excess << ")";
        }
        f.lines.push_back(os.str());
    }
    f.busUtilMae = errCount ? errSum / errCount : 0.0;
    return f;
}

// ---------------------------------------------------------------------
// Driver

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string workdir;
    std::string out;
    std::uint64_t refs = 0;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "prefsim_perfbench: " << why
              << "\nusage: prefsim_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --workdir DIR --out FILE "
                 "[--refs N]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveSeed = false, haveSeconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        try {
            if (flag == "--workload") {
                a.workload = v;
            } else if (flag == "--seed") {
                a.seed = std::stoull(v);
                haveSeed = true;
            } else if (flag == "--seconds") {
                a.seconds = std::stod(v);
                haveSeconds = true;
            } else if (flag == "--trace") {
                if (v != "0" && v != "1")
                    usage("--trace expects 0 or 1");
                a.trace = v == "1";
            } else if (flag == "--workdir") {
                a.workdir = v;
            } else if (flag == "--out") {
                a.out = v;
            } else if (flag == "--refs") {
                a.refs = std::stoull(v);
            } else {
                usage("unknown option " + flag);
            }
        } catch (const std::exception &) {
            usage("bad value for " + flag + ": " + v);
        }
    }
    if (a.workload.empty() || !haveSeed || !haveSeconds ||
        a.workdir.empty() || a.out.empty())
        usage("missing a required option");
    return a;
}

/** Run passes until the next one would overrun @p seconds. Traced runs
 *  alternate untraced and traced passes, so the tracing overhead is
 *  measured within one process. */
std::vector<PassResult>
runPasses(const Workload &w, const WorkloadParams &params,
          const fs::path &workdir, const Args &args)
{
    std::vector<PassResult> passes;
    const auto origin = Clock::now();
    for (;;) {
        Recorder rec(origin, args.trace && passes.size() % 2 == 1);
        g_recorder = &rec;
        PassResult pass;
        pass.traced = rec.traced();
        if (w.viaFiles)
            runFilePass(w, params, workdir, rec, pass);
        else
            runSweepPass(w, params, rec, pass);
        g_recorder = nullptr;
        pass.spans = rec.spans();
        pass.pointSeconds = rec.pointSeconds();
        passes.push_back(std::move(pass));

        const double elapsed = secondsSince(origin, Clock::now());
        const double perPass = elapsed / static_cast<double>(passes.size());
        const bool needMore = args.trace && passes.size() < 2;
        if (!needMore && elapsed + perPass > args.seconds)
            return passes;
    }
}

/** The output checks' tally. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    /** Fingerprint of every point of the first pass, by label. */
    std::map<std::string, std::string> fingerprints;

    void
    expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            errors.push_back(what);
        }
    }
};

/** Every pass must reproduce the first exactly, and the designated
 *  point the cycle-loop oracle, run from freshly generated inputs. */
Checks
checkOutputs(const Workload &w, const WorkloadParams &params,
             const std::vector<PassResult> &passes)
{
    Checks c;
    for (const ExperimentResult &r : passes.front().results)
        c.fingerprints[r.spec.label()] = fingerprint(r);
    const std::size_t points =
        w.apps.size() * w.strategies.size() * w.transfers.size();
    for (std::size_t p = 0; p < passes.size(); ++p) {
        const std::string pass = "pass " + std::to_string(p) + ": ";
        c.expect(passes[p].results.size() == points,
                 pass + "wrong number of points");
        for (const ExperimentResult &r : passes[p].results) {
            c.expect(fingerprint(r) == c.fingerprints[r.spec.label()],
                     pass + r.spec.label() +
                         " fingerprint differs from pass 0");
        }
        for (const auto &[label, fp] : passes[p].unobserved) {
            c.expect(fp == c.fingerprints[label],
                     pass + label + " differs with the observers off");
        }
        if (w.viaFiles)
            c.expect(passes[p].lintErrors == 0,
                     pass + "lint errors in a read-back trace");
    }

    const ExperimentSpec spec = makeSpec(params, w.oracle.app,
                                         w.oracle.strategy,
                                         w.oracle.transfer);
    c.expect(spec.simConfig().warmupEpisodes == 1,
             "statistics must start after one warm-up barrier episode");
    const AnnotatedTrace ann =
        annotateTrace(generateWorkload(spec.workload, params),
                      spec.annotationParams(), spec.geometry);
    ExperimentResult r;
    r.spec = spec;
    r.annotate = ann.stats;
    SimConfig cfg = spec.simConfig();
    cfg.engine = SimEngine::CycleLoop;
    r.sim = simulate(ann.trace, cfg);
    c.expect(fingerprint(r) == c.fingerprints[spec.label()],
             spec.label() + " differs from the cycle-loop oracle");
    return c;
}

using Metrics = std::vector<std::pair<std::string, double>>;

double
medianOver(const std::vector<const PassResult *> &passes,
           double (*get)(const PassResult &))
{
    std::vector<double> v;
    for (const PassResult *p : passes)
        v.push_back(get(*p));
    return median(v);
}

double
passWall(const PassResult &p)
{
    return p.wallSeconds;
}

double
passSetup(const PassResult &p)
{
    return p.setupSeconds;
}

Metrics
endToEndMetrics(const std::vector<const PassResult *> &untraced,
                const std::vector<double> &pointSeconds,
                const SimulatedTotals &tot, const Fidelity &fid)
{
    const double wall = medianOver(untraced, passWall);
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return {
        {"wall_s", wall},
        {"sim_refs_per_s", static_cast<double>(tot.demandRefs) / wall},
        {"point_s_p50", percentile(pointSeconds, 0.5)},
        {"point_s_p90", percentile(pointSeconds, 0.9)},
        {"setup_s", medianOver(untraced, passSetup)},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0},
        {"paper_bus_util_mae", fid.busUtilMae},
        {"paper_speedup_excess", fid.speedupExcess},
    };
}

Metrics
layerMetrics(const std::vector<const PassResult *> &untraced,
             const std::vector<const PassResult *> &traced,
             const SimulatedTotals &tot, const PassResult &first)
{
    // Per traced pass: layer self times, the unobserved re-simulations,
    // and the sweep's wall and worker busy ratio.
    std::map<std::string, std::vector<double>> by;
    for (const PassResult *p : traced) {
        std::map<std::string, double> layers = layerSeconds(p->spans);
        layers["unobserved"] =
            layerSeconds(p->spans, "bench.unobserved")["sim.simulate"];
        double sweep = 0.0, tasks = 0.0;
        for (const Span &s : p->spans) {
            if (s.name == "core.sweep")
                sweep += s.end - s.start;
            else if (s.name == "sim.simulate" && s.parent >= 0 &&
                     p->spans[static_cast<std::size_t>(s.parent)].name ==
                         "core.sweep")
                tasks += s.end - s.start;
        }
        layers["sweep_wall"] = sweep;
        layers["busy"] = sweep > 0 ? tasks / (sweep * p->workers) : 0.0;
        layers["wall"] = p->wallSeconds;
        for (const char *name :
             {"trace.generate", "trace.write", "trace.read", "verify.lint",
              "prefetch.annotate", "sim.simulate", "obs.write", "unobserved",
              "sweep_wall", "busy", "wall"})
            by[name].push_back(layers[name]);
    }
    const auto layer = [&](const char *name) { return median(by[name]); };
    const double simulate = layer("sim.simulate");
    const double unobserved = layer("unobserved");
    const auto num = [](std::uint64_t v) { return static_cast<double>(v); };
    return {
        {"trace.generate_s", layer("trace.generate")},
        {"trace.refs", num(first.generatedRefs)},
        {"trace.write_s", layer("trace.write")},
        {"trace.read_s", layer("trace.read")},
        {"trace.file_mb", num(first.traceFileBytes) / 1e6},
        {"verify.lint_s", layer("verify.lint")},
        {"verify.lint_findings", num(first.lintFindings)},
        {"prefetch.annotate_s", layer("prefetch.annotate")},
        {"prefetch.inserted", num(tot.inserted)},
        {"prefetch.overhead_ratio",
         ratio(tot.inserted, tot.annotatedDemand)},
        {"prefetch.bus_issue_ratio",
         ratio(tot.prefetchMisses, tot.prefetches)},
        {"sim.simulate_s", simulate},
        {"sim.ns_per_ref", simulate * 1e9 / num(tot.demandRefs)},
        {"sim.ns_per_cycle", simulate * 1e9 / num(tot.cycles)},
        {"sim.cycles", num(tot.cycles)},
        {"sim.proc_util", tot.procUtil},
        {"mem.bus_util", tot.busUtil},
        {"mem.bus_wait_demand_cycles", num(tot.busWaitDemand)},
        {"mem.bus_wait_prefetch_cycles", num(tot.busWaitPrefetch)},
        {"mem.cpu_miss_rate", ratio(tot.cpuMisses, tot.demandRefs)},
        {"mem.inval_miss_rate", ratio(tot.invalMisses, tot.demandRefs)},
        {"mem.false_sharing_rate", ratio(tot.falseSharing, tot.demandRefs)},
        {"mem.prefetch_unused_ratio",
         ratio(tot.prefetchedUnused, tot.prefetchMisses)},
        {"obs.overhead_ratio", unobserved > 0 ? simulate / unobserved : 0.0},
        {"obs.write_s", layer("obs.write")},
        {"obs.mb", num(first.obsDocBytes) / 1e6},
        {"core.sweep_wall_s", layer("sweep_wall")},
        {"core.worker_busy_ratio", layer("busy")},
        {"bench.tracing_overhead_s",
         layer("wall") - medianOver(untraced, passWall)},
    };
}

/** The machine-readable result run.py reads; it also holds the spans. */
void
writeResult(std::ostream &os, const Workload &w, const Args &args,
            const std::vector<PassResult> &passes, const Checks &c,
            const Metrics &metrics, const fs::path &workdir)
{
    const auto str = [](const std::string &v) {
        return JsonWriter::escape(v);
    };
    os << std::setprecision(17) << "{\"workload\":" << str(w.name)
       << ",\"seed\":" << args.seed << ",\"host\":{\"nproc\":"
       << std::thread::hardware_concurrency()
       << ",\"workers\":" << passes.front().workers
       << ",\"compiler\":" << str(PERFBENCH_COMPILER " " __VERSION__)
       << ",\"build_type\":" << str(PERFBENCH_BUILD_TYPE)
       << ",\"cxx_flags\":" << str(PERFBENCH_CXX_FLAGS)
       << "},\"attempted\":" << c.attempted << ",\"failed\":" << c.failed
       << ",\"errors\":[";
    for (std::size_t i = 0; i < c.errors.size(); ++i)
        os << (i ? "," : "") << str(c.errors[i]);
    os << "],\"fingerprints\":{";
    const char *sep = "";
    for (const auto &[label, fp] : c.fingerprints) {
        os << sep << str(label) << ":" << str(fp);
        sep = ",";
    }
    os << "},\"observer_docs\":[";
    if (w.viaFiles) {
        sep = "";
        for (const char *doc : {"profile", "critpath", "timeseries"}) {
            os << sep
               << str((workdir / "obs" / (std::string(doc) + ".json"))
                          .string());
            sep = ",";
        }
    }
    os << "],\"metrics\":{";
    sep = "";
    for (const auto &[name, value] : metrics) {
        os << sep << str(name) << ":" << value;
        sep = ",";
    }
    os << "},\"spans\":[";
    sep = "";
    for (std::size_t p = 0; p < passes.size(); ++p) {
        for (const Span &s : passes[p].spans) {
            os << sep << "{\"pass\":" << p << ",\"name\":" << str(s.name)
               << ",\"point\":" << str(s.point) << ",\"parent\":"
               << s.parent << ",\"start\":" << s.start
               << ",\"end\":" << s.end << "}";
            sep = ",";
        }
    }
    os << "]}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    if (!kOptimizedBuild) {
        std::cerr << "prefsim_perfbench: refusing to report from a build "
                     "without optimisation and NDEBUG (build type '"
                  << PERFBENCH_BUILD_TYPE << "')\n";
        return 2;
    }
    std::optional<Workload> found;
    for (const Workload &w : allWorkloadDefs()) {
        if (w.name == args.workload)
            found = w;
    }
    if (!found)
        usage("unknown workload " + args.workload);
    const Workload &w = *found;

    WorkloadParams params = defaultWorkloadParams();
    params.numProcs = w.procs;
    params.refsPerProc = args.refs ? args.refs : w.refsPerProc;
    params.seed = args.seed;
    const fs::path workdir = args.workdir;
    fs::create_directories(workdir);

    if (w.workers == 1) {
        cpu_set_t allowed;
        CPU_ZERO(&allowed);
        if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
            for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
                if (CPU_ISSET(cpu, &allowed))
                    g_rotateCpus.push_back(cpu);
            }
        }
    }
    const std::size_t rotateCpus = g_rotateCpus.size();
    const std::vector<PassResult> passes =
        runPasses(w, params, workdir, args);
    g_rotateCpus.clear();
    const Checks checks = checkOutputs(w, params, passes);

    std::vector<const PassResult *> untraced, traced;
    std::vector<double> pointSeconds;
    for (const PassResult &p : passes) {
        (p.traced ? traced : untraced).push_back(&p);
        if (!p.traced)
            pointSeconds.insert(pointSeconds.end(), p.pointSeconds.begin(),
                                p.pointSeconds.end());
    }
    const PassResult &first = passes.front();
    const SimulatedTotals tot = simulatedTotals(first);
    const Fidelity fid = paperFidelity(first);
    const Metrics metrics =
        args.trace ? layerMetrics(untraced, traced, tot, first)
                   : endToEndMetrics(untraced, pointSeconds, tot, fid);

    // Human-readable report; run.py forwards it.
    const double p90 = percentile(pointSeconds, 0.9);
    std::cout << "workload " << w.name << ": seed " << args.seed << ", "
              << passes.size() << " passes of " << first.results.size()
              << " points, " << first.workers << " worker(s), "
              << params.numProcs << " procs x " << params.refsPerProc
              << " refs/proc";
    if (rotateCpus)
        std::cout << ", simulations rotated over " << rotateCpus
                  << " CPUs";
    std::cout << "\n";
    for (std::size_t p = 0; p < passes.size(); ++p) {
        std::cout << "pass " << p << (passes[p].traced ? " (traced)" : "")
                  << ": setup " << passes[p].setupSeconds << " s, wall "
                  << passes[p].wallSeconds << " s\n";
    }
    std::cout << "point_s samples " << pointSeconds.size() << ", "
              << std::count_if(pointSeconds.begin(), pointSeconds.end(),
                               [p90](double v) { return v > p90; })
              << " beyond p90\n"
              << "simulated vs paper (Table 2 bus utilisation; speed-up "
                 "over NP against the paper's bands):\n";
    for (const std::string &line : fid.lines)
        std::cout << line << "\n";
    std::cout << "  paper_bus_util_mae " << fid.busUtilMae
              << ", paper_speedup_excess " << fid.speedupExcess << "\n";
    for (const std::string &e : checks.errors)
        std::cout << "ERROR: " << e << "\n";

    std::ofstream os(args.out, std::ios::trunc);
    writeResult(os, w, args, passes, checks, metrics, workdir);
    os.close();
    if (!os) {
        std::cerr << "prefsim_perfbench: cannot write " << args.out << "\n";
        return 2;
    }
    return checks.failed ? 1 : 0;
}
