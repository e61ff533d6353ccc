/**
 * @file
 * The observability context: the shared stores every simulation of a
 * sweep reports into — one metrics registry, one tracer, and one store
 * per per-run recorder (time series, attribution profile, critical
 * path).
 *
 * Ownership: a SweepEngine (or an embedder, or a test) creates an
 * ObsContext and points SimConfig::obs at it. Each Simulator then
 * builds one event sink, obs::RunHooks (run_hooks.hh), which registers
 * the machine metrics, creates this run's recorders, receives every
 * simulated event from the core through one narrow vocabulary and
 * commits the finished recorders back here. A recorder of existing
 * events is added in src/obs alone: no hook site in the core changes.
 * A null ObsContext pointer — the default everywhere — leaves the
 * core's sink pointers null and the simulator runs exactly as before.
 */

#ifndef PREFSIM_OBS_OBS_HH
#define PREFSIM_OBS_OBS_HH

#include "obs/critpath/critpath.hh"
#include "obs/interval_sampler.hh"
#include "obs/metrics.hh"
#include "obs/profile/attribution_profiler.hh"
#include "obs/trace.hh"

namespace prefsim
{

/** Shared instrumentation backplane (see file comment). */
struct ObsContext
{
    obs::MetricsRegistry metrics;
    obs::Tracer tracer;
    /** Finished interval time series (SimConfig::sampleInterval > 0);
     *  serialised as `prefsim-timeseries-v1`. */
    obs::TimeSeriesStore timeseries;
    /** Finished per-line attribution profiles (SimConfig::profile);
     *  serialised as `prefsim-profile-v1`. */
    obs::ProfileStore profile;
    /** Finished critical-path analyses (SimConfig::critpath);
     *  serialised as `prefsim-critpath-v1`. */
    obs::CritPathStore critpath;
};

} // namespace prefsim

#endif // PREFSIM_OBS_OBS_HH
