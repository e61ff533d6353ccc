/**
 * @file
 * Critical-path recorder: a last-arrival dependency tracker that turns
 * the stall decomposition of Fig. 2 into a causal explanation.
 *
 * The simulation layers already expose every side-effect boundary the
 * paper's argument turns on — bus request/grant/completion, upgrade
 * traffic, late demand attach to an in-flight prefetch, lock
 * release/acquire and barrier episodes. The recorder listens at those
 * boundaries (through the run's event sink, obs::RunHooks) and
 * partitions each processor's timeline into *pieces* tagged with a
 * closed set of resource classes:
 *
 *   compute          cycles not blocked on anything
 *   bus_arb          waiting for a data-bus grant (readyAt .. grant)
 *   data_transfer    occupying the data bus (grant .. completion)
 *   memory_latency   the DRAM access phase of a fill (issue .. readyAt)
 *   coherence_inval  upgrade traffic and refetch latency of
 *                    invalidation misses
 *   lock             spinning on a held lock
 *   barrier          waiting at a barrier for the last arriver
 *   prefetch_stall   stalled issuing a prefetch (buffer full)
 *
 * A backward walk from the last retirement yields the global critical
 * path: starting at the last-finishing processor, the walk consumes
 * that processor's pieces backwards; lock and barrier pieces carry a
 * cross-processor predecessor (the releaser / last arriver), and the
 * walk jumps to the predecessor's chain there, so the path snakes
 * through whichever processor bound the run at each instant. Gaps
 * between pieces are compute. By construction the per-class totals sum
 * exactly to done_at - warmup_end.
 *
 * Per-class *slack* is the machine-wide cost of the class that did NOT
 * land on the critical path (the aggregate second-arrival gap: cycles
 * other processors spent on the resource while the path ran
 * elsewhere). Slack is always >= 0.
 *
 * The what-if estimator predicts speedup bounds for three scenarios by
 * deleting the scenario's resource classes from the path and from a
 * per-barrier-episode bound (max over processors of active-minus-
 * removable cycles per episode, summed), taking whichever predicted
 * runtime is larger (i.e. the tighter lower bound). `--whatif-validate`
 * re-simulates with a widened bus and reports the drift of the
 * infinite-bus prediction against ground truth.
 *
 * Engine identity: the processor-side transitions (lock, barrier,
 * prefetch stall, miss issue) are exact-cycle records that the
 * local-clock core never replays quietly. Recorded values depend only
 * on (cycle, ids) of exact-cycle events, which the byte-identical
 * engine contract already fixes, so recorder output is byte-identical
 * across the cycle loop and the local-clock core by construction.
 */

#ifndef PREFSIM_OBS_CRITPATH_HH
#define PREFSIM_OBS_CRITPATH_HH

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "obs/run_store.hh"

namespace prefsim
{

namespace obs
{

/** Closed resource-class enum; the JSON schema exposes exactly these. */
enum class ResClass : std::uint8_t {
    Compute = 0,
    BusArb,
    DataTransfer,
    MemoryLatency,
    CoherenceInval,
    Lock,
    Barrier,
    PrefetchStall,
};

inline constexpr std::size_t kNumResClasses = 8;

/** Stable JSON name for a resource class. */
const char *resClassName(ResClass c);

/** One merged segment of the critical path (output form). */
struct CritChainSeg
{
    Cycle start = 0;
    Cycle end = 0;
    ProcId proc = kNoProc;
    ResClass cls = ResClass::Compute;
    Addr line = kNoAddr; ///< kNoAddr when not line-attributable.
};

/** One what-if scenario prediction (plus optional validation). */
struct WhatIf
{
    std::string scenario;
    std::uint64_t predictedCycles = 0;
    double speedup = 1.0;
    std::uint64_t actualCycles = 0; ///< 0 = not validated.
};

/** The finished analysis of one simulation run. */
struct CritPathRun
{
    std::string label;
    unsigned procs = 0;
    Cycle warmupEnd = 0;
    Cycle endCycle = 0;
    std::uint64_t totalCycles = 0; ///< endCycle - warmupEnd.
    bool skipped = false;          ///< Result-cache hit; no analysis.

    /** Per-class cycles on the critical path; sums to totalCycles. */
    std::array<std::uint64_t, kNumResClasses> pathCycles{};
    /** Per-class machine-wide cycles off the critical path (>= 0). */
    std::array<std::uint64_t, kNumResClasses> slackCycles{};

    std::vector<WhatIf> whatif;         ///< The three scenarios.
    std::vector<CritChainSeg> chain;    ///< Top-K segs, ascending start.
    /** Per-line critical-path cycles (bus/memory classes), top lines. */
    std::vector<std::pair<Addr, std::uint64_t>> lines;
};

/**
 * Per-run recorder. Created by the run's RunHooks when
 * SimConfig::critpath is set and consumed once via take() after the
 * run drains. Single-threaded (see file comment); no internal locking.
 */
class CritPathRecorder
{
  public:
    CritPathRecorder(unsigned procs, std::string label);

    // ---- memory-system / bus hooks ------------------------------------
    /** A data-class bus transaction entered the queue. @p demand_wait
     *  is true when the requester blocks on it from @p now (demand
     *  miss); false for prefetch issues. @p invalidation marks a miss
     *  classified as an invalidation miss (refetch latency belongs to
     *  coherence, not raw memory latency). */
    void busRequest(std::uint64_t id, ProcId proc, Addr line, Cycle now,
                    bool prefetch, bool invalidation, bool demand_wait);
    /** The bus granted transaction @p id at @p now; @p ready_at is when
     *  its memory phase completed (requests with unknown ids —
     *  writebacks — are ignored). */
    void busGrant(std::uint64_t id, Cycle ready_at, Cycle now);
    /** A demand access attached to in-flight transaction @p id. */
    void demandAttach(ProcId proc, std::uint64_t id, Cycle now);
    /** Transaction @p id completed with @p proc demand-blocked on it:
     *  decompose the wait into memory/arb/transfer pieces. */
    void demandWaitEnd(ProcId proc, std::uint64_t id, Cycle now);
    /** Transaction @p id completed with nobody waiting; drop it. */
    void busRelease(std::uint64_t id);
    /** @p proc issued an Upgrade (@p data=false) or WriteUpdate
     *  (@p data=true) for @p line and blocks until it completes. */
    void upgradeStart(ProcId proc, std::uint64_t id, Addr line, Cycle now,
                      bool data);
    /** The pending upgrade/write-update of @p proc completed. */
    void upgradeComplete(ProcId proc, Cycle now);

    // ---- processor / sync hooks ---------------------------------------
    /** @p proc spun on @p lock over [start, now) and then acquired it
     *  (the run's event sink tracks when each wait opened). */
    void lockWait(ProcId proc, SyncId lock, Cycle start, Cycle now);
    void
    lockReleased(ProcId proc, SyncId lock)
    {
        if (lock >= lockReleaser_.size())
            lockReleaser_.resize(std::size_t{lock} + 1, kNoProc);
        lockReleaser_[lock] = proc;
    }
    /** The last arriver (fires before the waiters are released). */
    void barrierLast(ProcId proc, Cycle now);
    /** @p proc waited at a barrier over [start, now). */
    void barrierWait(ProcId proc, Cycle start, Cycle now);
    /** @p proc stalled issuing a prefetch over [start, now). */
    void prefetchStall(ProcId proc, Cycle start, Cycle now);

    // ---- lifecycle -----------------------------------------------------
    /**
     * Run the backward walk and the what-if estimator over everything
     * recorded, clamped to [warmup_end, done_at), and return the
     * finished analysis. @p finished_at are the absolute per-processor
     * retirement cycles. Call once, after the writeback drain: the
     * recorded pieces are clamped in place, so the recorder is spent.
     */
    CritPathRun take(Cycle warmup_end, Cycle done_at,
                     const std::vector<Cycle> &finished_at);

  private:
    /** One attributed span of a processor's timeline. */
    struct Piece
    {
        Cycle start = 0;
        Cycle end = 0;
        Addr line = kNoAddr;
        ProcId pred = kNoProc; ///< Cross-chain jump (lock/barrier).
        ResClass cls = ResClass::Compute;
        bool prefetch = false; ///< Removable under "free prefetch".
    };

    /** In-flight bus transaction state. */
    struct Txn
    {
        ProcId waiter = kNoProc;
        Cycle waitStart = kNoCycle;
        Addr line = kNoAddr;
        Cycle readyAt = kNoCycle;
        Cycle grantAt = kNoCycle;
        bool prefetch = false;
        bool inval = false;
    };

    /**
     * In-flight transactions keyed by bus id. Bus ids are dense and
     * ascending, so an id's low bits are its home slot; linear probing
     * with backward-shift deletion keeps the few live entries in a
     * small table.
     */
    class TxnTable
    {
      public:
        TxnTable() : slots_(kInitialSlots) {}

        /** The transaction @p id; nullptr when it is not tracked. */
        Txn *
        find(std::uint64_t id)
        {
            for (std::size_t i = home(id);; i = next(i)) {
                Slot &s = slots_[i];
                if (s.id == id)
                    return &s.txn;
                if (s.id == kEmpty)
                    return nullptr;
            }
        }

        /** Track @p t as transaction @p id (replacing any earlier). */
        void put(std::uint64_t id, const Txn &t);

        /** Stop tracking @p id (no-op when it is not tracked). */
        void erase(std::uint64_t id);

      private:
        static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
        static constexpr std::size_t kInitialSlots = 64;

        struct Slot
        {
            std::uint64_t id = kEmpty;
            Txn txn;
        };

        std::size_t
        home(std::uint64_t id) const
        {
            return static_cast<std::size_t>(id) & (slots_.size() - 1);
        }
        std::size_t next(std::size_t i) const
        {
            return (i + 1) & (slots_.size() - 1);
        }

        std::vector<Slot> slots_;
        std::size_t used_ = 0;
    };

    void emitPiece(ProcId proc, Cycle start, Cycle end, ResClass cls,
                   Addr line, ProcId pred, bool prefetch);

    unsigned procs_;
    std::string label_;
    std::vector<std::vector<Piece>> pieces_; ///< Per proc, time-sorted.
    TxnTable txns_;

    // Per-processor open-wait state.
    std::vector<Cycle> upgradeStartAt_;
    std::vector<std::uint64_t> upgradeId_;
    std::vector<bool> upgradeData_;
    std::vector<Addr> upgradeLine_;

    // Cross-chain predecessors.
    /** Last releaser of each lock id (kNoProc: never released). */
    std::vector<ProcId> lockReleaser_;
    ProcId lastArriver_ = kNoProc;
    std::vector<Cycle> episodeEnds_; ///< Barrier release cycles.
};

/** Finished critical-path analyses of a sweep, owned by the
 *  ObsContext. */
class CritPathStore : public RunStore<CritPathRun>
{
  public:
    /** Attach the validated infinite-bus re-simulation result to the
     *  run with @p label (no-op when the label is unknown). */
    void attachValidation(const std::string &label,
                          std::uint64_t actual_cycles);

    /** Full document: {"schema":"prefsim-critpath-v1","runs":[...]}. */
    void
    writeJson(std::ostream &os) const
    {
        writeDocument(os, "prefsim-critpath-v1", writeRunJson);
    }

    /** One run object (shared with validate/report tooling tests). */
    static void writeRunJson(JsonWriter &j, const CritPathRun &run);
};

} // namespace obs
} // namespace prefsim

#endif // PREFSIM_OBS_CRITPATH_HH
