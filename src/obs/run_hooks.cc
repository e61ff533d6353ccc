#include "obs/run_hooks.hh"

#include "obs/obs.hh"

namespace prefsim
{
namespace obs
{

namespace
{

/** Distinguishes data-transfer async spans from the transaction
 *  lifetime spans they overlap (async pairs match on category + id;
 *  transaction ids never reach this bit). */
constexpr std::uint64_t kXferIdBit = 1ull << 63;

constexpr const char *
memStallName(MemStall why)
{
    switch (why) {
      case MemStall::Miss:
        return "stall_miss";
      case MemStall::Upgrade:
        return "stall_upgrade";
      case MemStall::InflightPrefetch:
        return "stall_inflight_prefetch";
    }
    return "stall";
}

} // namespace

RunHooks::RunHooks(ObsContext &ctx, unsigned procs, const std::string &label,
                   bool profile, bool critpath)
    : ctx_(ctx),
      // Bus: queue depth seen by arriving requests, and the arbitration
      // wait of each class (paper §3.3's demand-first policy made
      // visible).
      queue_depth_(ctx.metrics.histogram("bus.queue_depth",
                                         linearBounds(32))),
      arb_wait_demand_(ctx.metrics.histogram("bus.arb_wait_demand",
                                             powerOfTwoBounds(14))),
      arb_wait_prefetch_(ctx.metrics.histogram("bus.arb_wait_prefetch",
                                               powerOfTwoBounds(14))),
      prefetch_lateness_(ctx.metrics.histogram("prefetch.lateness_cycles",
                                               powerOfTwoBounds(14))),
      // Caches: machine totals (per-processor splits live in ProcStats).
      evictions_(ctx.metrics.counter("cache.evictions")),
      evictions_dirty_(ctx.metrics.counter("cache.evictions_dirty")),
      evictions_prefetch_unused_(
          ctx.metrics.counter("cache.evictions_prefetch_unused")),
      invalidations_(ctx.metrics.counter("coherence.invalidations")),
      downgrades_(ctx.metrics.counter("coherence.downgrades")),
      dead_fills_(ctx.metrics.counter("coherence.dead_fills")),
      late_demand_attach_(
          ctx.metrics.counter("prefetch.late_demand_attach"))
{
    // Null when tracing is disabled or the session budget is spent.
    trace_ = ctx.tracer.beginSession(procs, label);
    if (profile)
        profile_ = std::make_unique<AttributionProfiler>(procs, label);
    if (critpath)
        critpath_ = std::make_unique<CritPathRecorder>(procs, label);
    if (tracing() || critpath_)
        stalls_.resize(procs);
}

RunHooks::~RunHooks() { flushMetrics(); }

void
RunHooks::flushMetrics()
{
    for (HistogramTally *h : {&queue_depth_, &arb_wait_demand_,
                              &arb_wait_prefetch_, &prefetch_lateness_})
        h->flush();
    for (CounterTally *c :
         {&evictions_, &evictions_dirty_, &evictions_prefetch_unused_,
          &invalidations_, &downgrades_, &dead_fills_,
          &late_demand_attach_})
        c->flush();
}

void
RunHooks::busGrant(std::uint64_t id, Addr line, ProcId requester,
                   Cycle ready_at, Cycle now, Cycle occupancy, bool demand,
                   bool overlapping)
{
    if (profile_) {
        ProfileLineCounts &l = profile_->line(line);
        l.busCycles += occupancy;
        if (!demand)
            l.busCyclesPrefetch += occupancy;
        ++l.busOps;
    }
    if (critpath_)
        critpath_->busGrant(id, ready_at, now);
    (demand ? arb_wait_demand_ : arb_wait_prefetch_).record(now - ready_at);
    // With a single channel grants are strictly sequential, so a
    // synchronous span nests; parallel channels overlap and need async
    // pairing.
    if (TraceBuffer *t = tracing()) {
        if (overlapping) {
            t->asyncSpan(t->busTid(), "transfer", TraceCat::Bus,
                         id | kXferIdBit, now, now + occupancy, line,
                         requester);
        } else {
            t->span(t->busTid(), "transfer", TraceCat::Bus, now,
                    now + occupancy, line, requester);
        }
    }
}

void
RunHooks::evict(ProcId proc, Addr line, bool dirty, bool unused_prefetch)
{
    evictions_.inc();
    if (dirty)
        evictions_dirty_.inc();
    if (unused_prefetch) {
        evictions_prefetch_unused_.inc();
        if (profile_)
            ++profile_->prefetch(proc, line).displaced;
    }
}

void
RunHooks::downgrade(ProcId proc, Addr line, ProcId requester, Cycle now)
{
    downgrades_.inc();
    if (profile_)
        ++profile_->line(line).downgrades;
    if (TraceBuffer *t = tracing()) {
        t->instant(proc, "downgrade", TraceCat::Coherence, now, line,
                   requester);
    }
}

void
RunHooks::invalidate(ProcId proc, Addr line, ProcId requester, Cycle now,
                     bool false_sharing, bool kills_prefetch)
{
    invalidations_.inc();
    if (TraceBuffer *t = tracing()) {
        t->instant(proc, "invalidate", TraceCat::Coherence, now, line,
                   requester);
    }
    if (profile_) {
        ProfileLineCounts &l = profile_->line(line);
        ++l.invalidations;
        if (false_sharing)
            ++l.invalidationsFalse;
        if (kills_prefetch)
            ++profile_->prefetch(proc, line).killed;
    }
}

void
RunHooks::inflightKill(ProcId proc, Addr line, ProcId requester, Cycle now,
                       bool prefetch)
{
    invalidations_.inc();
    if (TraceBuffer *t = tracing()) {
        t->instant(proc, "kill_inflight_fill", TraceCat::Coherence, now,
                   line, requester);
    }
    if (profile_) {
        ++profile_->line(line).inflightKills;
        if (prefetch)
            ++profile_->prefetch(proc, line).killed;
    }
}

void
RunHooks::missClassified(Addr line, bool invalidation, bool prefetched_lost,
                         bool false_sharing)
{
    if (!profile_)
        return;
    ProfileLineCounts &l = profile_->line(line);
    if (invalidation)
        ++(prefetched_lost ? l.missInvalidationPrefetched
                           : l.missInvalidation);
    else
        ++(prefetched_lost ? l.missNonSharingPrefetched : l.missNonSharing);
    if (false_sharing)
        ++l.missFalseSharing;
}

void
RunHooks::demandAttach(ProcId proc, std::uint64_t id, Addr line, Cycle now)
{
    if (critpath_)
        critpath_->demandAttach(proc, id, now);
    late_demand_attach_.inc();
    if (profile_) {
        // A demand MSHR carries demandWaiting from allocation, so an
        // attach is always to an in-flight *prefetch*: the late
        // outcome, plus its own miss row.
        ++profile_->line(line).missPrefetchInflight;
        ++profile_->prefetch(proc, line).late;
    }
    if (TraceBuffer *t = tracing())
        t->instant(proc, "late_demand_attach", TraceCat::Prefetch, now, line);
}

void
RunHooks::fillComplete(ProcId proc, std::uint64_t id, Addr line, Cycle now,
                       bool prefetch, bool demand_waiting, bool dead,
                       Cycle attached_at)
{
    if (critpath_) {
        if (demand_waiting)
            critpath_->demandWaitEnd(proc, id, now);
        else
            critpath_->busRelease(id);
    }
    // A late prefetch: a demand access has been blocked on this fill
    // since attached_at. (Demand misses record their full wait in
    // ProcStats; the lateness isolates the residual latency
    // prefetching failed to hide.)
    if (prefetch && demand_waiting) {
        prefetch_lateness_.record(now - attached_at);
        if (profile_)
            profile_->prefetch(proc, line).latenessCycles +=
                now - attached_at;
    }
    if (dead)
        dead_fills_.inc();
    if (TraceBuffer *t = tracing()) {
        t->instant(proc,
                   dead       ? "dead_fill"
                   : prefetch ? "prefetch_fill"
                              : "fill",
                   prefetch ? TraceCat::Prefetch : TraceCat::Coherence, now,
                   line);
    }
}

void
RunHooks::prefetchIssue(ProcId proc, std::uint64_t id, Addr line, Cycle now,
                        bool exclusive)
{
    if (critpath_) {
        critpath_->busRequest(id, proc, line, now, /*prefetch=*/true,
                              /*invalidation=*/false,
                              /*demand_wait=*/false);
    }
    if (profile_)
        ++profile_->prefetch(proc, line).issued;
    if (TraceBuffer *t = tracing()) {
        t->instant(proc, exclusive ? "prefetch_excl_issue" : "prefetch_issue",
                   TraceCat::Prefetch, now, line);
    }
}

void
RunHooks::memoryStall(ProcId proc, MemStall why, Cycle now)
{
    stallBegin(proc, memStallName(why), TraceCat::Exec, now);
}

void
RunHooks::lockAcquire(ProcId proc, SyncId lock, Cycle now, bool spun)
{
    if (spun) {
        const Cycle start = stallEnd(proc, now);
        if (critpath_)
            critpath_->lockWait(proc, lock, start, now);
    }
    if (TraceBuffer *t = tracing()) {
        t->instant(proc, "lock_acquire", TraceCat::Sync, now, kNoAddr,
                   lock);
    }
}

void
RunHooks::lockRelease(ProcId proc, SyncId lock, Cycle now)
{
    if (critpath_)
        critpath_->lockReleased(proc, lock);
    if (TraceBuffer *t = tracing()) {
        t->instant(proc, "lock_release", TraceCat::Sync, now, kNoAddr,
                   lock);
    }
}

void
RunHooks::barrierArrive(ProcId proc, SyncId barrier, Cycle now, bool last)
{
    if (TraceBuffer *t = tracing()) {
        t->instant(proc, "barrier_arrive", TraceCat::Sync, now, kNoAddr,
                   barrier);
    }
    if (last) {
        // The recorder learns the episode's critical arriver before the
        // waiters release, so their barrier pieces carry the right
        // predecessor.
        if (critpath_)
            critpath_->barrierLast(proc, now);
        return;
    }
    stallBegin(proc, "wait_barrier", TraceCat::Sync, now);
}

void
RunHooks::commit(Cycle warmup_end, Cycle done_at,
                 const std::vector<Cycle> &finished_at)
{
    flushMetrics();
    if (profile_) {
        ctx_.profile.commit(profile_->take(warmup_end));
        profile_.reset();
    }
    // The critical-path walk wants absolute retirement cycles (the
    // recorder clamps everything to the measured window itself, so no
    // warmup reset is needed — pre-warmup pieces simply clip away).
    if (critpath_) {
        ctx_.critpath.commit(critpath_->take(warmup_end, done_at,
                                             finished_at));
        critpath_.reset();
    }
    if (trace_) {
        // Ring-buffer eviction is otherwise silent; the counter makes
        // truncated traces detectable in the telemetry document.
        ctx_.metrics.counter("trace.dropped_events").inc(trace_->dropped());
        ctx_.tracer.commit(std::move(trace_));
    }
}

} // namespace obs
} // namespace prefsim
