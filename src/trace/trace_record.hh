/**
 * @file
 * Trace record definitions.
 *
 * A trace is the per-processor event stream that drives the simulator,
 * standing in for the MPTrace address traces used in the paper. Records
 * model exactly the events Charlie consumed: instruction batches, data
 * references, lock acquire/release, barriers — plus the prefetch records
 * that the off-line prefetch pass inserts.
 */

#ifndef PREFSIM_TRACE_TRACE_RECORD_HH
#define PREFSIM_TRACE_TRACE_RECORD_HH

#include <cstdint>

#include "common/types.hh"

namespace prefsim
{

/** Kind of a trace record. */
enum class RecordKind : std::uint8_t
{
    Instr,       ///< @c count non-memory instructions (1 cycle each).
    Read,        ///< Data read of @c addr (1 instr + 1 cycle on hit).
    Write,       ///< Data write of @c addr (1 instr + 1 cycle on hit).
    Prefetch,    ///< Shared-mode prefetch of the line containing @c addr.
    PrefetchExcl,///< Exclusive-mode prefetch (read-for-ownership).
    LockAcquire, ///< Acquire lock @c sync (spins until free).
    LockRelease, ///< Release lock @c sync.
    Barrier,     ///< Global barrier @c sync across all processors.
};

/** True for Read/Write records (demand data references). */
constexpr bool
isDemandRef(RecordKind k)
{
    return k == RecordKind::Read || k == RecordKind::Write;
}

/** True for shared or exclusive prefetch records. */
constexpr bool
isPrefetch(RecordKind k)
{
    return k == RecordKind::Prefetch || k == RecordKind::PrefetchExcl;
}

/** True for lock / barrier records. */
constexpr bool
isSync(RecordKind k)
{
    return k == RecordKind::LockAcquire || k == RecordKind::LockRelease ||
           k == RecordKind::Barrier;
}

/**
 * One event in a per-processor trace.
 *
 * The struct is deliberately a flat 16-byte POD: whole experiments iterate
 * hundreds of millions of records. No record kind uses both @c count and
 * @c sync, so they share storage.
 */
struct TraceRecord
{
    RecordKind kind = RecordKind::Instr;
    union
    {
        /** For Instr: the number of instructions batched into this
         *  record (0 for every other non-sync kind). */
        std::uint32_t count = 0;
        /** For sync records: lock or barrier identifier. */
        SyncId sync;
    };
    /** For Read/Write/Prefetch*: byte address. For sync records: unused. */
    Addr addr = kNoAddr;

    /** @name Constructors for each record kind. @{ */
    static TraceRecord
    instr(std::uint32_t count)
    {
        TraceRecord r;
        r.count = count;
        return r;
    }

    static TraceRecord
    read(Addr addr)
    {
        return access(RecordKind::Read, addr);
    }

    static TraceRecord
    write(Addr addr)
    {
        return access(RecordKind::Write, addr);
    }

    static TraceRecord
    prefetch(Addr addr, bool exclusive = false)
    {
        return access(exclusive ? RecordKind::PrefetchExcl
                                : RecordKind::Prefetch,
                      addr);
    }

    static TraceRecord
    lockAcquire(SyncId id)
    {
        return syncOp(RecordKind::LockAcquire, id);
    }

    static TraceRecord
    lockRelease(SyncId id)
    {
        return syncOp(RecordKind::LockRelease, id);
    }

    static TraceRecord
    barrier(SyncId id)
    {
        return syncOp(RecordKind::Barrier, id);
    }
    /** @} */

    bool
    operator==(const TraceRecord &o) const
    {
        if (kind != o.kind || addr != o.addr)
            return false;
        return isSync(kind) ? sync == o.sync : count == o.count;
    }

  private:
    static TraceRecord
    access(RecordKind k, Addr a)
    {
        TraceRecord r;
        r.kind = k;
        r.addr = a;
        return r;
    }

    static TraceRecord
    syncOp(RecordKind k, SyncId id)
    {
        TraceRecord r;
        r.kind = k;
        r.sync = id;
        return r;
    }
};

static_assert(sizeof(TraceRecord) == 16,
              "TraceRecord must stay a 16-byte record");

} // namespace prefsim

#endif // PREFSIM_TRACE_TRACE_RECORD_HH
