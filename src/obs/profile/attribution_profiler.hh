/**
 * @file
 * Address-level contention attribution: per-cache-line heat maps,
 * sharing classification, and prefetch-usefulness accounting.
 *
 * The aggregate counters (SimStats) and interval series (IntervalSampler)
 * say *how much* the bus and the coherence protocol cost; this layer says
 * *which lines* cost it. An AttributionProfiler is created per simulation
 * run when SimConfig::profile is set; the run's event sink
 * (obs::RunHooks) attributes each event to a cache-line record:
 *
 *  - demand misses, split by the Figure 3 taxonomy (non-sharing vs
 *    invalidation, prefetched-and-lost vs never-prefetched, plus the
 *    false-sharing subset classified from per-word touch masks);
 *  - invalidation / downgrade ping-pong chains (true vs false sharing);
 *  - data-bus occupancy cycles, split demand vs prefetch class;
 *  - per-prefetch outcomes (issued / useful / late / killed /
 *    displaced), keyed by line and issuing processor.
 *
 * All counters are additive, so the profile is identical however the
 * engines interleave the work (prefetch first-use fires inside the
 * local-clock core's quiet hit replay, possibly later than in the
 * cycle loop); serialisation sorts runs by label and lines by address,
 * giving byte-identical `prefsim-profile-v1` output across both engines
 * (asserted by tests/test_profile.cc).
 */

#ifndef PREFSIM_OBS_PROFILE_ATTRIBUTION_PROFILER_HH
#define PREFSIM_OBS_PROFILE_ATTRIBUTION_PROFILER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hh"
#include "obs/run_store.hh"

namespace prefsim
{

namespace obs
{

/** Outcome record of every prefetch one processor issued for one line. */
struct ProfilePrefetch
{
    std::uint64_t issued = 0;    ///< Went to the bus.
    std::uint64_t useful = 0;    ///< Line used before being lost.
    std::uint64_t late = 0;      ///< Demand attached while in flight.
    std::uint64_t latenessCycles = 0; ///< Cycles demands waited on them.
    std::uint64_t killed = 0;    ///< Invalidated before first use.
    std::uint64_t displaced = 0; ///< Evicted/discarded before first use.
};

/** A cache line's own counters: everything attributed to it except
 *  the per-processor prefetch outcomes. */
struct ProfileLineCounts
{
    /** @name Demand-miss taxonomy (MissBreakdown at line granularity).
     *  prefetchInflight counts demands that attached to an in-flight
     *  prefetch (the "late" path) rather than missing outright. @{ */
    std::uint64_t missNonSharing = 0;
    std::uint64_t missNonSharingPrefetched = 0;
    std::uint64_t missInvalidation = 0;
    std::uint64_t missInvalidationPrefetched = 0;
    std::uint64_t missPrefetchInflight = 0;
    /** Subset of the invalidation misses whose causing invalidation hit
     *  a word this processor never touched (per-word access masks). */
    std::uint64_t missFalseSharing = 0;
    /** @} */

    /** @name Coherence ping-pong on this line. @{ */
    std::uint64_t invalidations = 0;      ///< Resident copies killed.
    std::uint64_t invalidationsFalse = 0; ///< ... on an untouched word.
    std::uint64_t downgrades = 0;         ///< Private copies demoted.
    std::uint64_t inflightKills = 0;      ///< In-flight fills poisoned.
    /** @} */

    /** @name Data-bus occupancy attributed to this line. @{ */
    std::uint64_t busCycles = 0;         ///< All data-bus occupancy.
    std::uint64_t busCyclesPrefetch = 0; ///< ... by prefetch-class ops.
    std::uint64_t busOps = 0;            ///< Data-bus grants.
    /** @} */
};

/** Everything attributed to one cache line. */
struct ProfileLine : ProfileLineCounts
{
    /** Per-processor prefetch outcomes (ordered: serialisation emits
     *  the map directly). */
    std::map<unsigned, ProfilePrefetch> prefetch;
};

/** One finished run's profile, committed to the ProfileStore. */
struct ProfileRun
{
    std::string label;
    unsigned procs = 0;
    /** Cycle the warmup statistics reset happened (0 = none). */
    Cycle warmupEnd = 0;
    /** Cache-hit sweep results skip simulation; the run is recorded
     *  with this marker instead of silently missing (check.sh /
     *  validate_telemetry treat absence as an error). */
    bool skipped = false;
    /** Ordered by address: serialisation iterates directly. */
    std::map<Addr, ProfileLine> lines;
};

/** Sums over a run's lines (recomputed at write time so the totals
 *  block always equals the per-line rows — the Table 3 consistency
 *  contract prefsim_report re-checks). */
struct ProfileTotals
{
    std::uint64_t misses = 0;
    std::uint64_t missInvalidation = 0;
    std::uint64_t missFalseSharing = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t downgrades = 0;
    std::uint64_t busCycles = 0;
    std::uint64_t busCyclesPrefetch = 0;
    std::uint64_t pfIssued = 0;
    std::uint64_t pfUseful = 0;
    std::uint64_t pfLate = 0;
    std::uint64_t pfKilled = 0;
    std::uint64_t pfDisplaced = 0;

    static ProfileTotals of(const ProfileRun &run);
};

/**
 * Accumulates one run's attribution. The run's event sink
 * (obs::RunHooks) creates it when profiling is requested, counts each
 * event straight into the matching line record, resets it at the
 * warmup statistics boundary and moves the finished run into the
 * ProfileStore.
 *
 * Recording is flat: an open-addressing table (Fibonacci-hashed line
 * base -> record index) over dense line records, each heading a short
 * list of per-processor prefetch outcomes in one shared array. The
 * ordered ProfileRun is built once, at take().
 */
class AttributionProfiler
{
  public:
    AttributionProfiler(unsigned procs, std::string label);

    /** The counters of the line at @p addr (created on first use). The
     *  reference stays valid until the next line is created. */
    ProfileLineCounts &line(Addr addr) { return lines_[find(addr)].counts; }

    /** @p proc's prefetch outcomes on the line at @p addr. The
     *  reference stays valid until the next record is created. */
    ProfilePrefetch &prefetch(ProcId proc, Addr addr);

    /** Discard everything attributed so far (warmup statistics reset;
     *  all processors caught up). */
    void resetForWarmup();

    /** Move the finished run out (the profiler is spent afterwards). */
    ProfileRun take(Cycle warmup_end);

  private:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};
    static constexpr std::size_t kInitialSlots = 1024;

    struct LineRecord
    {
        Addr addr = kNoAddr;
        ProfileLineCounts counts;
        std::uint32_t firstPrefetch = kNone; ///< Head of its list.
    };
    struct PrefetchRecord
    {
        ProcId proc = kNoProc;
        std::uint32_t next = kNone; ///< Same line, another processor.
        ProfilePrefetch counts;
    };
    struct Slot
    {
        Addr key = kNoAddr;
        std::uint32_t record = 0;
    };

    /** Index of @p addr's line record, created when absent. */
    std::uint32_t
    find(Addr addr)
    {
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = home(addr);; i = (i + 1) & mask) {
            const Slot &s = slots_[i];
            if (s.key == addr)
                return s.record;
            if (s.key == kNoAddr)
                return insert(i, addr);
        }
    }

    /** Fibonacci hashing (the MemorySystem holder-table idiom). */
    std::size_t
    home(Addr key) const
    {
        return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                        32) &
               (slots_.size() - 1);
    }

    /** Add @p addr's record in the empty slot @p at (growing first when
     *  the table would pass half full). */
    std::uint32_t insert(std::size_t at, Addr addr);

    std::vector<Slot> slots_;
    std::vector<LineRecord> lines_;
    std::vector<PrefetchRecord> prefetches_;
    ProfileRun run_; ///< Label and shape; the lines are filled at take().
};

/** Finished profile runs of a sweep, owned by the ObsContext. */
class ProfileStore : public RunStore<ProfileRun>
{
  public:
    /** Distinct attributed lines across all runs (telemetry summary). */
    std::uint64_t
    totalLines() const
    {
        return sum([](const ProfileRun &r) { return r.lines.size(); });
    }

    /** Write the full `prefsim-profile-v1` document. */
    void
    writeJson(std::ostream &os) const
    {
        writeDocument(os, "prefsim-profile-v1", writeRunJson);
    }

    /** Emit one run as a JSON object into an open writer (shared by
     *  writeJson and tests). */
    static void writeRunJson(JsonWriter &j, const ProfileRun &run);
};

} // namespace obs
} // namespace prefsim

#endif // PREFSIM_OBS_PROFILE_ATTRIBUTION_PROFILER_HH
