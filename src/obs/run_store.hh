/**
 * @file
 * The thread-safe collection every per-run recorder commits into.
 *
 * Each recorder (time series, attribution profile, critical path)
 * produces one finished run per simulation and keeps a store of them on
 * the ObsContext. Sweep workers commit concurrently in completion
 * order; the serialised document sorts runs by label so it is
 * deterministic anyway (scripts/check.sh diffs engine outputs
 * byte-for-byte).
 */

#ifndef PREFSIM_OBS_RUN_STORE_HH
#define PREFSIM_OBS_RUN_STORE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <utility>
#include <vector>

#include "common/json.hh"

namespace prefsim
{
namespace obs
{

/** Finished runs of type @p Run (anything with a `label` string). */
template <typename Run>
class RunStore
{
  public:
    void
    commit(Run run)
    {
        std::lock_guard<std::mutex> lock(mu_);
        runs_.push_back(std::move(run));
    }

    bool
    empty() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return runs_.empty();
    }

    std::size_t
    numRuns() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return runs_.size();
    }

    /** Copy of the committed runs (tests and report tooling). */
    std::vector<Run>
    snapshot() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return runs_;
    }

  protected:
    /** Sum @p per_run over the committed runs. */
    template <typename Fn>
    std::uint64_t
    sum(Fn per_run) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::uint64_t n = 0;
        for (const Run &r : runs_)
            n += per_run(r);
        return n;
    }

    /** Write `{"schema": schema, "runs": [...]}`, one @p write_run call
     *  per run in label order. */
    template <typename WriteRun>
    void
    writeDocument(std::ostream &os, const char *schema,
                  WriteRun write_run) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::vector<const Run *> ordered;
        ordered.reserve(runs_.size());
        for (const Run &r : runs_)
            ordered.push_back(&r);
        std::stable_sort(ordered.begin(), ordered.end(),
                         [](const Run *a, const Run *b) {
                             return a->label < b->label;
                         });
        JsonWriter j(os);
        j.beginObject();
        j.key("schema").value(schema);
        j.key("runs").beginArray();
        for (const Run *r : ordered)
            write_run(j, *r);
        j.endArray();
        j.endObject();
        os << "\n";
    }

    mutable std::mutex mu_;
    std::vector<Run> runs_;
};

} // namespace obs
} // namespace prefsim

#endif // PREFSIM_OBS_RUN_STORE_HH
