/**
 * @file
 * The thread-safe collection every per-run recorder commits into.
 *
 * Each recorder (time series, attribution profile, critical path)
 * produces one finished run per simulation and keeps a store of them on
 * the ObsContext. Sweep workers commit concurrently in completion
 * order; the serialised document sorts runs by label, and runs that
 * share a label by their serialised form, so it is deterministic anyway
 * (scripts/check.sh diffs engine outputs byte-for-byte).
 */

#ifndef PREFSIM_OBS_RUN_STORE_HH
#define PREFSIM_OBS_RUN_STORE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <sstream>
#include <string>
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
     *  per run in label order. Runs sharing a label (say, one
     *  configuration at several cache sizes) are ordered by their
     *  serialised form, so the document does not depend on the order
     *  they were committed in. */
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
        std::sort(ordered.begin(), ordered.end(),
                  [](const Run *a, const Run *b) {
                      return a->label < b->label;
                  });
        const auto serialised = [&](const Run *r) {
            std::ostringstream text;
            JsonWriter w(text);
            write_run(w, *r);
            return text.str();
        };
        for (auto first = ordered.begin(); first != ordered.end();) {
            const auto last = std::find_if(
                first, ordered.end(), [&](const Run *r) {
                    return r->label != (*first)->label;
                });
            if (last - first > 1) {
                std::vector<std::pair<std::string, const Run *>> tied;
                for (auto it = first; it != last; ++it)
                    tied.emplace_back(serialised(*it), *it);
                std::sort(tied.begin(), tied.end());
                for (const auto &t : tied)
                    *first++ = t.second;
            }
            first = last;
        }
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
