#include "prefetch/inserter.hh"

#include <algorithm>
#include <memory>
#include <tuple>
#include <utility>
#include <unordered_map>
#include <vector>

#include "common/log.hh"
#include "prefetch/assoc_filter.hh"
#include "prefetch/cost_model.hh"
#include "prefetch/filter_cache.hh"
#include "trace/sharing_analysis.hh"

namespace prefsim
{

namespace
{

/** A prefetch scheduled for insertion into record @c recordIdx. */
struct PendingPrefetch
{
    /** Record the prefetch lands in (before it, or inside an Instr
     *  batch split at @c offset). */
    std::size_t recordIdx;
    /** Estimated cycles into the record (non-zero only for Instr). */
    Cycle offset;
    Addr addr;
    bool exclusive;
};

/**
 * For every record index, the estimated start cycle of the next demand
 * access to the same line if that access is a *write* (kNoCycle when
 * the next same-line access is a read or absent). Supports the
 * read-then-write exclusive-prefetch detector.
 */
std::vector<Cycle>
nextWriteToSameLine(const Trace &in, const std::vector<Cycle> &start,
                    const CacheGeometry &geom)
{
    std::vector<Cycle> next(in.size(), kNoCycle);
    std::unordered_map<Addr, Cycle> upcoming; // line -> write start, or
                                              // kNoCycle if next is read
    for (std::size_t i = in.size(); i-- > 0;) {
        const TraceRecord &r = in[i];
        if (!isDemandRef(r.kind))
            continue;
        const Addr line = geom.lineBase(r.addr);
        const auto it = upcoming.find(line);
        next[i] = it == upcoming.end() ? kNoCycle : it->second;
        upcoming[line] =
            r.kind == RecordKind::Write ? start[i] : kNoCycle;
    }
    return next;
}

/**
 * Annotate one processor's trace.
 *
 * A candidate access at estimated cycle c gets its prefetch placed at
 * estimated cycle c - distance. If that lands inside a batched Instr
 * record the batch is split — the compiler the pass emulates schedules
 * prefetches between ordinary instructions, not just around memory
 * references. Candidates inside the first @c distance cycles are
 * hoisted to the top of the trace (or clamped below the nearest sync
 * record when dontCrossSync is set).
 */
Trace
annotateProc(const Trace &in, const StrategyParams &params,
             const CacheGeometry &geom, const SharingAnalysis *sharing,
             AnnotateStats &stats)
{
    const std::vector<Cycle> start = estimatedStartCycles(in);
    std::vector<Cycle> next_write;
    if (params.exclusiveReadThenWrite)
        next_write = nextWriteToSameLine(in, start, geom);

    // For the compiler-realism constraint: the most recent sync record
    // at or before each index (kNoIndex when none).
    constexpr std::size_t kNoIndex = ~std::size_t{0};
    std::vector<std::size_t> last_sync;
    if (params.dontCrossSync) {
        last_sync.resize(in.size(), kNoIndex);
        std::size_t recent = kNoIndex;
        for (std::size_t i = 0; i < in.size(); ++i) {
            if (isSync(in[i].kind))
                recent = i;
            last_sync[i] = recent;
        }
    }

    FilterCache oracle(geom);
    AssocFilter pws_filter(geom, params.pwsFilterLines);

    std::vector<PendingPrefetch> pending;
    for (std::size_t i = 0; i < in.size(); ++i) {
        const TraceRecord &r = in[i];
        if (!isDemandRef(r.kind))
            continue;
        ++stats.demandRefs;

        const bool oracle_miss = oracle.access(r.addr);
        bool pws_miss = false;
        if (params.prefetchWriteShared && sharing &&
            sharing->isWriteShared(r.addr)) {
            pws_miss = pws_filter.access(r.addr) && !oracle_miss;
        }
        if (oracle_miss)
            ++stats.oracleCandidates;
        if (pws_miss)
            ++stats.pwsCandidates;
        if (!oracle_miss && !pws_miss)
            continue;
        if (params.privateLinesOnly && sharing &&
            sharing->classOf(r.addr) != SharingClass::Private) {
            // Non-snooping prefetch buffers cannot legally hold data
            // another processor might write (§3.1).
            ++stats.droppedShared;
            continue;
        }

        const Cycle target = start[i] >= params.distanceCycles
                                 ? start[i] - params.distanceCycles
                                 : 0;
        // The record containing the target cycle: the last j <= i with
        // start[j] <= target (target < start[i] since distance > 0).
        const auto it = std::upper_bound(
            start.begin(),
            start.begin() + static_cast<std::ptrdiff_t>(i + 1), target);
        const auto j = static_cast<std::size_t>(it - start.begin()) - 1;

        auto j_final = j;
        Cycle offset = target - start[j];
        if (params.dontCrossSync && last_sync[i] != kNoIndex &&
            last_sync[i] >= j &&
            !(isSync(in[i].kind))) {
            // A sync record sits between the natural placement and the
            // access: clamp the prefetch to just after it (shorter
            // distance, possibly a prefetch-in-progress wait).
            j_final = last_sync[i] + 1;
            offset = 0;
        }
        if (j_final >= in.size() || in[j_final].kind != RecordKind::Instr)
            offset = 0; // Indivisible record: place just before it.
        else if (j_final != j)
            offset = 0;

        bool exclusive =
            params.exclusiveWrites && r.kind == RecordKind::Write;
        if (!exclusive && params.exclusiveReadThenWrite &&
            r.kind == RecordKind::Read && next_write[i] != kNoCycle &&
            next_write[i] - start[i] <= params.rtwWindowCycles) {
            // Read immediately followed by a write to the same line:
            // fetch ownership up front and save the upgrade (§4.3).
            exclusive = true;
            ++stats.rtwExclusive;
        }
        // Keep the word address (not just the line base): the simulator
        // attributes false sharing per word, including invalidations
        // caused by exclusive prefetches.
        pending.push_back({j_final, offset, r.addr, exclusive});
        ++stats.inserted;
        if (exclusive)
            ++stats.insertedExclusive;
    }

    // pending is sorted by covered access; order by placement, keeping
    // covered-access order for ties so earlier needs prefetch first.
    std::stable_sort(pending.begin(), pending.end(),
                     [](const PendingPrefetch &a, const PendingPrefetch &b) {
                         return std::tie(a.recordIdx, a.offset) <
                                std::tie(b.recordIdx, b.offset);
                     });

    Trace out;
    out.reserve(in.size() + 2 * pending.size());
    std::size_t next = 0;
    for (std::size_t i = 0; i < in.size(); ++i) {
        const TraceRecord &r = in[i];
        Cycle emitted = 0; // Instr cycles of record i already emitted.
        while (next < pending.size() && pending[next].recordIdx == i) {
            const PendingPrefetch &p = pending[next];
            if (p.offset > emitted) {
                prefsim_assert(r.kind == RecordKind::Instr,
                               "split offset in non-instr record");
                out.appendInstrs(
                    static_cast<std::uint32_t>(p.offset - emitted));
                emitted = p.offset;
            }
            out.append(TraceRecord::prefetch(p.addr, p.exclusive));
            ++next;
        }
        if (r.kind == RecordKind::Instr) {
            prefsim_assert(emitted <= r.count, "instr split overflow");
            // appendInstrs would re-coalesce the tail with the head if
            // no prefetch separated them; emitting the remainder keeps
            // the total count intact either way.
            out.appendInstrs(static_cast<std::uint32_t>(r.count - emitted));
        } else {
            out.append(r);
        }
    }
    while (next < pending.size()) {
        out.append(TraceRecord::prefetch(pending[next].addr,
                                         pending[next].exclusive));
        ++next;
    }
    return out;
}

} // namespace

AnnotateStats &
AnnotateStats::operator+=(const AnnotateStats &o)
{
    oracleCandidates += o.oracleCandidates;
    pwsCandidates += o.pwsCandidates;
    inserted += o.inserted;
    insertedExclusive += o.insertedExclusive;
    rtwExclusive += o.rtwExclusive;
    droppedShared += o.droppedShared;
    demandRefs += o.demandRefs;
    return *this;
}

AnnotatedTrace
unannotated(ParallelTrace trace)
{
    AnnotatedTrace result;
    result.trace = std::move(trace);
    for (const auto &t : result.trace.procs)
        result.stats.demandRefs += t.demandRefs();
    return result;
}

AnnotatedTrace
annotateTrace(const ParallelTrace &input, const StrategyParams &params,
              const CacheGeometry &geom, const ForEachProc &for_each_proc)
{
    if (!params.enabled)
        return unannotated(input);
    if (params.distanceCycles == 0)
        prefsim_fatal("prefetch distance must be non-zero when enabled");

    // PWS needs whole-workload knowledge of which lines are
    // write-shared; the non-snooping-buffer model needs the private set.
    // Built once, before the per-processor fan-out reads it.
    std::unique_ptr<SharingAnalysis> sharing;
    if (params.prefetchWriteShared || params.privateLinesOnly)
        sharing = std::make_unique<SharingAnalysis>(input, geom.lineBytes());

    AnnotatedTrace result;
    result.trace.name = input.name;
    result.trace.numLocks = input.numLocks;
    result.trace.numBarriers = input.numBarriers;
    const std::size_t n = input.numProcs();
    result.trace.procs.resize(n);
    std::vector<AnnotateStats> proc_stats(n);
    const std::function<void(std::size_t)> one = [&](std::size_t p) {
        result.trace.procs[p] = annotateProc(input.procs[p], params, geom,
                                             sharing.get(), proc_stats[p]);
    };
    if (for_each_proc) {
        for_each_proc(n, one);
    } else {
        for (std::size_t p = 0; p < n; ++p)
            one(p);
    }
    for (const AnnotateStats &s : proc_stats)
        result.stats += s;
    return result;
}

AnnotatedTrace
annotateTrace(const ParallelTrace &input, Strategy strategy,
              const CacheGeometry &geom)
{
    return annotateTrace(input, strategyParams(strategy), geom);
}

} // namespace prefsim
