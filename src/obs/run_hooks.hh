/**
 * @file
 * The per-run event sink: the one interface the simulation core
 * reports observable events through.
 *
 * The paper's explanation of prefetching's limits rests on a small
 * event vocabulary — bus requests, grants and waits; invalidations,
 * downgrades and false sharing; prefetches that are late, killed or
 * displaced; lock and barrier waits. SplitBus, DataCache, MemorySystem
 * and Processor each hold one `RunHooks *` (null = unobserved) and
 * report every event with a single guarded call. Each method fans the
 * event out to whichever recorders this run attached: the machine
 * metrics (always, once an ObsContext is set), the AttributionProfiler
 * (SimConfig::profile), the CritPathRecorder (SimConfig::critpath) and
 * the TraceBuffer (a runtime-enabled Tracer; events are recorded only
 * in builds with PREFSIM_TRACING=1 — the switch lives here alone).
 *
 * The recorder set is fixed, with no registry: a recorder of existing
 * events is added here, in src/obs, and no hook site in the core
 * changes. The interval sampler is not an event consumer — the
 * Simulator polls it at sample boundaries — so it stays outside.
 * RunHooks also owns the recorders' per-run lifecycle: set-up, the
 * warmup reset and the final commit into the ObsContext stores.
 * docs/observability.md tabulates which recorder consumes each event.
 */

#ifndef PREFSIM_OBS_RUN_HOOKS_HH
#define PREFSIM_OBS_RUN_HOOKS_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "obs/critpath/critpath.hh"
#include "obs/metrics.hh"
#include "obs/profile/attribution_profiler.hh"
#include "obs/trace.hh"

namespace prefsim
{

struct ObsContext;

namespace obs
{

/** Why a processor blocked in the memory system. */
enum class MemStall : std::uint8_t
{
    Miss,             ///< Demand miss waiting for its fill.
    Upgrade,          ///< Write hit on Shared waiting for the upgrade.
    InflightPrefetch, ///< Demand attached to an in-flight prefetch.
};

/** One simulation run's event sink (see file comment). */
class RunHooks
{
  public:
    /** Register the machine metrics in @p ctx (which must outlive the
     *  run), begin this run's trace session and create the profiler
     *  and critical-path recorder when asked. */
    RunHooks(ObsContext &ctx, unsigned procs, const std::string &label,
             bool profile, bool critpath);
    /** Flushes any metric events that arrived after commit(). */
    ~RunHooks();
    RunHooks(const RunHooks &) = delete;
    RunHooks &operator=(const RunHooks &) = delete;

    /** @name Bus. @{ */
    /** A data-class operation entered the bus behind @p queued others. */
    void busRequest(std::size_t queued) { queue_depth_.record(queued); }

    /** The data bus granted transaction @p id for @p occupancy cycles;
     *  its memory phase ended at @p ready_at. @p overlapping: several
     *  data channels may transfer at once. */
    void busGrant(std::uint64_t id, Addr line, ProcId requester,
                  Cycle ready_at, Cycle now, Cycle occupancy, bool demand,
                  bool overlapping);

    /** Transaction @p id (operation @p op, a static name) completed; it
     *  entered the bus at @p issued_at. */
    void
    busComplete(std::uint64_t id, const char *op, Addr line,
                ProcId requester, Cycle issued_at, Cycle now)
    {
        if (TraceBuffer *t = tracing())
            t->asyncSpan(t->busTid(), op, TraceCat::Bus, id, issued_at,
                         now, line, requester);
    }
    /** @} */

    /** @name Caches. @{ */
    /** A valid line left @p proc's cache + victim-buffer pair. */
    void evict(ProcId proc, Addr line, bool dirty, bool unused_prefetch);

    /** A parked prefetch-buffer line was pushed out unused. */
    void
    prefetchDisplace(ProcId proc, Addr line)
    {
        if (profile_)
            ++profile_->prefetch(proc, line).displaced;
    }
    /** @} */

    /** @name Coherence: @p requester's bus operation reaches @p line in
     *  cache @p proc. @{ */
    void downgrade(ProcId proc, Addr line, ProcId requester, Cycle now);
    /** A resident copy died; @p kills_prefetch: it was prefetched and
     *  never used. */
    void invalidate(ProcId proc, Addr line, ProcId requester, Cycle now,
                    bool false_sharing, bool kills_prefetch);
    /** An in-flight fill was poisoned (it will arrive dead). */
    void inflightKill(ProcId proc, Addr line, ProcId requester, Cycle now,
                      bool prefetch);

    /** A parked prefetch-buffer line was killed. */
    void
    prefetchKill(ProcId proc, Addr line)
    {
        if (profile_)
            ++profile_->prefetch(proc, line).killed;
    }
    /** @} */

    /** @name Demand accesses and fills. @{ */
    /** A CPU miss was classified (paper Figure 3 taxonomy). */
    void missClassified(Addr line, bool invalidation, bool prefetched_lost,
                        bool false_sharing);

    /** A demand miss's fill (transaction @p id) entered the bus. */
    void
    demandMiss(ProcId proc, std::uint64_t id, Addr line, Cycle now,
               bool invalidation)
    {
        if (critpath_)
            critpath_->busRequest(id, proc, line, now, /*prefetch=*/false,
                                  invalidation, /*demand_wait=*/true);
    }

    /** A demand access attached to in-flight prefetch @p id: the
     *  prefetch is late. */
    void demandAttach(ProcId proc, std::uint64_t id, Addr line, Cycle now);

    /** @p proc blocked on an upgrade (@p update: a write-update
     *  broadcast) of @p line. */
    void
    upgradeStart(ProcId proc, std::uint64_t id, Addr line, Cycle now,
                 bool update)
    {
        if (critpath_)
            critpath_->upgradeStart(proc, id, line, now, update);
    }

    void
    upgradeComplete(ProcId proc, Cycle now)
    {
        if (critpath_)
            critpath_->upgradeComplete(proc, now);
    }

    /** Fill @p id completed; @p dead: invalidated in flight. With
     *  @p demand_waiting, a demand access attached at @p attached_at. */
    void fillComplete(ProcId proc, std::uint64_t id, Addr line, Cycle now,
                      bool prefetch, bool demand_waiting, bool dead,
                      Cycle attached_at);
    /** @} */

    /** @name Prefetches. @{ */
    void prefetchIssue(ProcId proc, std::uint64_t id, Addr line, Cycle now,
                       bool exclusive);

    /** First use of a prefetched line. */
    void
    prefetchUse(ProcId proc, Addr line)
    {
        if (profile_)
            ++profile_->prefetch(proc, line).useful;
    }
    /** @} */

    /** @name Processor stalls and synchronisation. @{ */
    void memoryStall(ProcId proc, MemStall why, Cycle now);
    void memoryWake(ProcId proc, Cycle now) { stallEnd(proc, now); }

    void
    prefetchStall(ProcId proc, Cycle now)
    {
        stallBegin(proc, "stall_prefetch_buffer", TraceCat::Exec, now);
    }

    void
    prefetchStallEnd(ProcId proc, Cycle now)
    {
        const Cycle start = stallEnd(proc, now);
        if (critpath_)
            critpath_->prefetchStall(proc, start, now);
    }

    void
    lockSpin(ProcId proc, Cycle now)
    {
        stallBegin(proc, "spin_lock", TraceCat::Sync, now);
    }

    /** @p spun: the acquisition ends a spin (vs. taking a free lock). */
    void lockAcquire(ProcId proc, SyncId lock, Cycle now, bool spun);
    void lockRelease(ProcId proc, SyncId lock, Cycle now);
    /** @p last: this arrival completes the episode (it fires before the
     *  waiters' barrierRelease events). */
    void barrierArrive(ProcId proc, SyncId barrier, Cycle now, bool last);

    void
    barrierRelease(ProcId proc, Cycle now)
    {
        const Cycle start = stallEnd(proc, now);
        if (critpath_)
            critpath_->barrierWait(proc, start, now);
    }
    /** @} */

    /** @name Lifecycle. @{ */
    /** Warmup statistics reset: the profile covers the measured window
     *  only (every processor is caught up at this point). */
    void
    resetForWarmup()
    {
        if (profile_)
            profile_->resetForWarmup();
    }

    /** Commit the finished run to the ObsContext stores: the machine
     *  metrics tallied so far, the profile, the critical-path analysis
     *  over [@p warmup_end, @p done_at) given the absolute retirement
     *  cycles @p finished_at, and the trace session. Call after the
     *  writeback drain; the recorders are spent afterwards and later
     *  events reach the metrics only (flushed at destruction). */
    void commit(Cycle warmup_end, Cycle done_at,
                const std::vector<Cycle> &finished_at);
    /** @} */

  private:
    /** The trace buffer when events are recorded: null when tracing is
     *  off at run time, and always in builds without PREFSIM_TRACING
     *  (every recording branch then folds away). */
    TraceBuffer *
    tracing() const
    {
        return PREFSIM_TRACING ? trace_.get() : nullptr;
    }

    /** Open @p proc's stall (at most one is open per processor). */
    void
    stallBegin(ProcId proc, const char *name, TraceCat cat, Cycle now)
    {
        if (!stalls_.empty())
            stalls_[proc] = OpenStall{name, cat, now};
    }

    /** Close the stall opened by the last stallBegin() (recording its
     *  span) and return the cycle it opened. */
    Cycle
    stallEnd(ProcId proc, Cycle now)
    {
        if (stalls_.empty())
            return now;
        const OpenStall &s = stalls_[proc];
        if (TraceBuffer *t = tracing())
            t->span(proc, s.name, s.cat, s.begin, now);
        return s.begin;
    }

    /** Add the metric tallies to the shared registry. */
    void flushMetrics();

    ObsContext &ctx_;

    /** The machine metrics, tallied per run without atomics and added
     *  to the ObsContext registry by flushMetrics(). */
    HistogramTally queue_depth_;
    HistogramTally arb_wait_demand_;
    HistogramTally arb_wait_prefetch_;
    HistogramTally prefetch_lateness_;
    CounterTally evictions_;
    CounterTally evictions_dirty_;
    CounterTally evictions_prefetch_unused_;
    CounterTally invalidations_;
    CounterTally downgrades_;
    CounterTally dead_fills_;
    CounterTally late_demand_attach_;

    std::unique_ptr<AttributionProfiler> profile_;
    std::unique_ptr<CritPathRecorder> critpath_;
    std::unique_ptr<TraceBuffer> trace_;

    /** Per-processor open stall (sized only when a recorder reads it:
     *  the tracer's spans and the critical path's wait pieces). */
    struct OpenStall
    {
        const char *name = "stall";
        TraceCat cat = TraceCat::Exec;
        Cycle begin = 0;
    };
    std::vector<OpenStall> stalls_;
};

} // namespace obs
} // namespace prefsim

#endif // PREFSIM_OBS_RUN_HOOKS_HH
