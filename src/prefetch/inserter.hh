/**
 * @file
 * The off-line prefetch insertion pass (paper §3.1, §4.1).
 *
 * Emulates the "ideal" of compiler-directed prefetching: an oracle that
 * perfectly predicts non-sharing misses (scalars and arrays, leading
 * references, capacity and conflict misses) and never prefetches data
 * that is not used. Candidates come from a uniprocessor filter cache of
 * the simulated cache's geometry; each selected access gets a prefetch
 * record inserted *prefetch distance* estimated cycles upstream.
 *
 * Strategy knobs:
 *  - EXCL turns prefetches covering predicted write misses into exclusive
 *    (read-for-ownership) prefetches;
 *  - LPD stretches the insertion distance;
 *  - PWS additionally runs each processor's references to write-shared
 *    lines through a small associative filter and prefetches its misses
 *    even when the main filter predicts a hit — redundant prefetches that
 *    target invalidation misses.
 */

#ifndef PREFSIM_PREFETCH_INSERTER_HH
#define PREFSIM_PREFETCH_INSERTER_HH

#include <cstddef>
#include <cstdint>
#include <functional>

#include "common/cache_geometry.hh"
#include "prefetch/strategy.hh"
#include "trace/trace.hh"

namespace prefsim
{

/** Aggregate accounting of one annotation pass. */
struct AnnotateStats
{
    /** Filter-cache (non-sharing) prefetch candidates. */
    std::uint64_t oracleCandidates = 0;
    /** Additional PWS candidates (write-shared, poor temporal locality).*/
    std::uint64_t pwsCandidates = 0;
    /** Prefetch records actually inserted (after de-duplication). */
    std::uint64_t inserted = 0;
    /** Of those, exclusive-mode prefetches. */
    std::uint64_t insertedExclusive = 0;
    /** Exclusive prefetches selected by the read-then-write detector. */
    std::uint64_t rtwExclusive = 0;
    /** Candidates dropped because the line is shared and the target is
     *  a non-snooping prefetch buffer (privateLinesOnly). */
    std::uint64_t droppedShared = 0;
    /** Demand references examined. */
    std::uint64_t demandRefs = 0;

    AnnotateStats &operator+=(const AnnotateStats &o);

    /** Prefetches per demand reference — the code-expansion overhead. */
    double
    overheadRatio() const
    {
        return demandRefs ? static_cast<double>(inserted) /
                                static_cast<double>(demandRefs)
                          : 0.0;
    }
};

/** An annotated trace plus the pass accounting. */
struct AnnotatedTrace
{
    ParallelTrace trace;
    AnnotateStats stats;
};

/**
 * Runs `fn(0)` … `fn(n - 1)`, possibly concurrently, and returns once
 * every call has finished (ThreadPool::parallelFor fits). An empty
 * executor runs them in order on the calling thread.
 */
using ForEachProc = std::function<void(
    std::size_t n, const std::function<void(std::size_t)> &fn)>;

/**
 * @p trace as its own NP annotation: unmodified, with only the demand
 * references counted. Takes the trace by value, so a caller that moves
 * it in pays no copy.
 */
AnnotatedTrace unannotated(ParallelTrace trace);

/**
 * Produce a copy of @p input with prefetch records inserted according to
 * @p params, for caches of geometry @p geom.
 *
 * With params.enabled == false the trace is returned unmodified (NP).
 * Each processor's stream is annotated independently (its own filter
 * caches; only the whole-trace SharingAnalysis is shared, read-only), so
 * @p for_each_proc may run them concurrently; the result is identical
 * either way.
 */
AnnotatedTrace annotateTrace(const ParallelTrace &input,
                             const StrategyParams &params,
                             const CacheGeometry &geom,
                             const ForEachProc &for_each_proc = {});

/** Convenience overload using the paper's parameters for @p strategy. */
AnnotatedTrace annotateTrace(const ParallelTrace &input, Strategy strategy,
                             const CacheGeometry &geom);

} // namespace prefsim

#endif // PREFSIM_PREFETCH_INSERTER_HH
