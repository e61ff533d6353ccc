#include "obs/profile/attribution_profiler.hh"

#include <algorithm>
#include <ostream>

#include "common/json.hh"
#include "common/log.hh"

namespace prefsim
{
namespace obs
{

ProfileTotals
ProfileTotals::of(const ProfileRun &run)
{
    ProfileTotals t;
    for (const auto &[addr, l] : run.lines) {
        (void)addr;
        t.misses += l.missNonSharing + l.missNonSharingPrefetched +
                    l.missInvalidation + l.missInvalidationPrefetched +
                    l.missPrefetchInflight;
        t.missInvalidation +=
            l.missInvalidation + l.missInvalidationPrefetched;
        t.missFalseSharing += l.missFalseSharing;
        t.invalidations += l.invalidations;
        t.downgrades += l.downgrades;
        t.busCycles += l.busCycles;
        t.busCyclesPrefetch += l.busCyclesPrefetch;
        for (const auto &[proc, pf] : l.prefetch) {
            (void)proc;
            t.pfIssued += pf.issued;
            t.pfUseful += pf.useful;
            t.pfLate += pf.late;
            t.pfKilled += pf.killed;
            t.pfDisplaced += pf.displaced;
        }
    }
    return t;
}

AttributionProfiler::AttributionProfiler(unsigned procs,
                                         std::string label)
    : slots_(kInitialSlots)
{
    run_.label = std::move(label);
    run_.procs = procs;
}

std::uint32_t
AttributionProfiler::insert(std::size_t at, Addr addr)
{
    if (2 * (lines_.size() + 1) > slots_.size()) {
        std::vector<Slot> old(slots_.size() * 2);
        old.swap(slots_);
        const std::size_t mask = slots_.size() - 1;
        for (const Slot &s : old) {
            if (s.key == kNoAddr)
                continue;
            std::size_t i = home(s.key);
            while (slots_[i].key != kNoAddr)
                i = (i + 1) & mask;
            slots_[i] = s;
        }
        return find(addr);
    }
    const auto record = static_cast<std::uint32_t>(lines_.size());
    slots_[at] = Slot{addr, record};
    lines_.push_back(LineRecord{addr, {}, kNone});
    return record;
}

ProfilePrefetch &
AttributionProfiler::prefetch(ProcId proc, Addr addr)
{
    LineRecord &l = lines_[find(addr)];
    for (std::uint32_t i = l.firstPrefetch; i != kNone;
         i = prefetches_[i].next) {
        if (prefetches_[i].proc == proc)
            return prefetches_[i].counts;
    }
    prefetches_.push_back(PrefetchRecord{proc, l.firstPrefetch, {}});
    l.firstPrefetch = static_cast<std::uint32_t>(prefetches_.size() - 1);
    return prefetches_.back().counts;
}

void
AttributionProfiler::resetForWarmup()
{
    std::fill(slots_.begin(), slots_.end(), Slot{});
    lines_.clear();
    prefetches_.clear();
}

ProfileRun
AttributionProfiler::take(Cycle warmup_end)
{
    std::sort(lines_.begin(), lines_.end(),
              [](const LineRecord &a, const LineRecord &b) {
                  return a.addr < b.addr;
              });
    for (const LineRecord &rec : lines_) {
        ProfileLine &l =
            run_.lines.emplace_hint(run_.lines.end(), rec.addr,
                                    ProfileLine{})
                ->second;
        static_cast<ProfileLineCounts &>(l) = rec.counts;
        for (std::uint32_t i = rec.firstPrefetch; i != kNone;
             i = prefetches_[i].next)
            l.prefetch.emplace(prefetches_[i].proc, prefetches_[i].counts);
    }
    run_.warmupEnd = warmup_end;
    return std::move(run_);
}

void
ProfileStore::writeRunJson(JsonWriter &j, const ProfileRun &run)
{
    j.beginObject();
    j.key("label").value(run.label);
    if (run.skipped) {
        // A cached sweep result: simulation (and therefore profiling)
        // was skipped. The explicit marker keeps "no data" and "run
        // never happened" distinguishable downstream.
        j.key("skipped").value("cache-hit");
        j.endObject();
        return;
    }
    j.key("procs").value(std::uint64_t{run.procs});
    j.key("warmup_end").value(run.warmupEnd);
    j.key("lines").beginArray();
    for (const auto &[addr, l] : run.lines) {
        j.beginObject();
        j.key("addr").value(addr);
        j.key("miss_nonsharing").value(l.missNonSharing);
        j.key("miss_nonsharing_prefetched")
            .value(l.missNonSharingPrefetched);
        j.key("miss_invalidation").value(l.missInvalidation);
        j.key("miss_invalidation_prefetched")
            .value(l.missInvalidationPrefetched);
        j.key("miss_prefetch_inflight").value(l.missPrefetchInflight);
        j.key("miss_false_sharing").value(l.missFalseSharing);
        j.key("invalidations").value(l.invalidations);
        j.key("invalidations_false").value(l.invalidationsFalse);
        j.key("downgrades").value(l.downgrades);
        j.key("inflight_kills").value(l.inflightKills);
        j.key("bus_cycles").value(l.busCycles);
        j.key("bus_cycles_prefetch").value(l.busCyclesPrefetch);
        j.key("bus_ops").value(l.busOps);
        j.key("pf").beginArray();
        for (const auto &[proc, pf] : l.prefetch) {
            j.beginObject();
            j.key("proc").value(std::uint64_t{proc});
            j.key("issued").value(pf.issued);
            j.key("useful").value(pf.useful);
            j.key("late").value(pf.late);
            j.key("lateness_cycles").value(pf.latenessCycles);
            j.key("killed").value(pf.killed);
            j.key("displaced").value(pf.displaced);
            j.endObject();
        }
        j.endArray();
        j.endObject();
    }
    j.endArray();
    const ProfileTotals t = ProfileTotals::of(run);
    j.key("totals").beginObject();
    j.key("misses").value(t.misses);
    j.key("miss_invalidation").value(t.missInvalidation);
    j.key("miss_false_sharing").value(t.missFalseSharing);
    j.key("invalidations").value(t.invalidations);
    j.key("downgrades").value(t.downgrades);
    j.key("bus_cycles").value(t.busCycles);
    j.key("bus_cycles_prefetch").value(t.busCyclesPrefetch);
    j.key("pf_issued").value(t.pfIssued);
    j.key("pf_useful").value(t.pfUseful);
    j.key("pf_late").value(t.pfLate);
    j.key("pf_killed").value(t.pfKilled);
    j.key("pf_displaced").value(t.pfDisplaced);
    j.endObject();
    j.endObject();
}

} // namespace obs
} // namespace prefsim
