/**
 * @file
 * Tests for the off-line prefetch insertion pass.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "prefetch/cost_model.hh"
#include "prefetch/inserter.hh"
#include "trace/workload.hh"

namespace prefsim
{
namespace
{

const CacheGeometry kGeom = CacheGeometry::paperDefault();


/** Normalise a record stream: drop prefetches, coalesce Instr runs. */
std::vector<TraceRecord>
normalized(const Trace &t)
{
    std::vector<TraceRecord> out;
    std::uint64_t instrs = 0;
    auto flush = [&]() {
        if (instrs) {
            out.push_back(
                TraceRecord::instr(static_cast<std::uint32_t>(instrs)));
            instrs = 0;
        }
    };
    for (const auto &r : t.records()) {
        if (isPrefetch(r.kind))
            continue;
        if (r.kind == RecordKind::Instr) {
            instrs += r.count;
            continue;
        }
        flush();
        out.push_back(r);
    }
    flush();
    return out;
}

ParallelTrace
singleProc(Trace t)
{
    ParallelTrace pt;
    pt.name = "t";
    pt.procs.push_back(std::move(t));
    return pt;
}

TEST(Inserter, NpLeavesTraceUntouched)
{
    Trace t;
    t.appendInstrs(50);
    t.append(TraceRecord::read(0x1000));
    const ParallelTrace in = singleProc(std::move(t));

    const AnnotatedTrace out = annotateTrace(in, Strategy::NP, kGeom);
    ASSERT_EQ(out.trace.procs[0].size(), in.procs[0].size());
    EXPECT_EQ(out.stats.inserted, 0u);
    EXPECT_EQ(out.stats.demandRefs, 1u);
}

TEST(Inserter, OracleCoversEveryColdMiss)
{
    Trace t;
    for (int i = 0; i < 20; ++i) {
        t.appendInstrs(200);
        t.append(TraceRecord::read(0x1000 + Addr{unsigned(i)} * 32));
    }
    const AnnotatedTrace out =
        annotateTrace(singleProc(std::move(t)), Strategy::PREF, kGeom);
    EXPECT_EQ(out.stats.oracleCandidates, 20u);
    EXPECT_EQ(out.stats.inserted, 20u);
    EXPECT_EQ(out.trace.procs[0].prefetches(), 20u);
}

TEST(Inserter, NoPrefetchForHits)
{
    Trace t;
    t.append(TraceRecord::read(0x1000));
    for (int i = 0; i < 10; ++i) {
        t.appendInstrs(200);
        t.append(TraceRecord::read(0x1004)); // Same line: hits.
    }
    const AnnotatedTrace out =
        annotateTrace(singleProc(std::move(t)), Strategy::PREF, kGeom);
    EXPECT_EQ(out.stats.inserted, 1u);
}

TEST(Inserter, ConflictMissesArePredicted)
{
    // Alternating lines that map to the same set: every access misses.
    Trace t;
    for (int i = 0; i < 10; ++i) {
        t.appendInstrs(200);
        t.append(TraceRecord::read(i % 2 ? 0x0 : Addr{kGeom.sizeBytes()}));
    }
    const AnnotatedTrace out =
        annotateTrace(singleProc(std::move(t)), Strategy::PREF, kGeom);
    EXPECT_EQ(out.stats.inserted, 10u);
}

TEST(Inserter, PrefetchPlacedDistanceAhead)
{
    Trace t;
    t.appendInstrs(500);
    t.append(TraceRecord::read(0x1000));
    const AnnotatedTrace out =
        annotateTrace(singleProc(std::move(t)), Strategy::PREF, kGeom);

    const Trace &a = out.trace.procs[0];
    // Expect: instr batch, prefetch, instr batch, read — the prefetch
    // splits the 500-cycle batch so that ~100 estimated cycles remain.
    const auto start = estimatedStartCycles(a);
    std::size_t pf = a.size(), rd = a.size();
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (isPrefetch(a[i].kind))
            pf = i;
        if (a[i].kind == RecordKind::Read)
            rd = i;
    }
    ASSERT_LT(pf, a.size());
    ASSERT_LT(rd, a.size());
    ASSERT_LT(pf, rd);
    const Cycle gap = start[rd] - start[pf];
    // The paper's PREF distance is 100 cycles; insertion lands at a
    // record boundary at or just beyond the target.
    EXPECT_GE(gap, 100u);
    EXPECT_LE(gap, 110u);
}

TEST(Inserter, EarlyMissesHoistedToTop)
{
    Trace t;
    t.appendInstrs(10);
    t.append(TraceRecord::read(0x1000)); // Within first 100 cycles.
    const AnnotatedTrace out =
        annotateTrace(singleProc(std::move(t)), Strategy::PREF, kGeom);
    const Trace &a = out.trace.procs[0];
    ASSERT_GE(a.size(), 3u);
    EXPECT_TRUE(isPrefetch(a[0].kind));
}

TEST(Inserter, LpdUsesLongDistance)
{
    Trace t;
    t.appendInstrs(1000);
    t.append(TraceRecord::read(0x1000));
    const AnnotatedTrace out =
        annotateTrace(singleProc(std::move(t)), Strategy::LPD, kGeom);
    const Trace &a = out.trace.procs[0];
    const auto start = estimatedStartCycles(a);
    std::size_t pf = 0, rd = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (isPrefetch(a[i].kind))
            pf = i;
        if (a[i].kind == RecordKind::Read)
            rd = i;
    }
    EXPECT_GE(start[rd] - start[pf], 400u);
    EXPECT_LE(start[rd] - start[pf], 410u);
}

TEST(Inserter, ExclMarksOnlyWriteCoveringPrefetches)
{
    Trace t;
    t.appendInstrs(300);
    t.append(TraceRecord::read(0x1000));
    t.appendInstrs(300);
    t.append(TraceRecord::write(0x2000));
    const AnnotatedTrace out =
        annotateTrace(singleProc(std::move(t)), Strategy::EXCL, kGeom);

    unsigned shared = 0, excl = 0;
    for (const auto &r : out.trace.procs[0].records()) {
        shared += r.kind == RecordKind::Prefetch ? 1 : 0;
        excl += r.kind == RecordKind::PrefetchExcl ? 1 : 0;
    }
    EXPECT_EQ(shared, 1u);
    EXPECT_EQ(excl, 1u);
    EXPECT_EQ(out.stats.insertedExclusive, 1u);
}

TEST(Inserter, PrefMarksNothingExclusive)
{
    Trace t;
    t.appendInstrs(300);
    t.append(TraceRecord::write(0x2000));
    const AnnotatedTrace out =
        annotateTrace(singleProc(std::move(t)), Strategy::PREF, kGeom);
    EXPECT_EQ(out.stats.insertedExclusive, 0u);
}

TEST(Inserter, PwsAddsRedundantPrefetchesForWriteShared)
{
    // Twenty write-shared lines cycled in order through the 16-line PWS
    // filter: every access misses the filter even though the oracle
    // filter (same geometry as the cache) predicts hits.
    ParallelTrace pt;
    pt.name = "t";
    pt.procs.resize(2);
    Trace &a = pt.procs[0];
    for (int round = 0; round < 6; ++round) {
        for (unsigned i = 0; i < 20; ++i) {
            a.appendInstrs(20);
            a.append(TraceRecord::read(0x5000 + Addr{i} * 32));
        }
    }
    for (unsigned i = 0; i < 20; ++i)
        pt.procs[1].append(TraceRecord::write(0x5004 + Addr{i} * 32));

    const AnnotatedTrace pref = annotateTrace(pt, Strategy::PREF, kGeom);
    const AnnotatedTrace pws = annotateTrace(pt, Strategy::PWS, kGeom);
    EXPECT_EQ(pref.stats.pwsCandidates, 0u);
    EXPECT_GT(pws.stats.pwsCandidates, 50u);
    EXPECT_GT(pws.stats.inserted, pref.stats.inserted);
    // Redundant prefetches target line 0x5000 only.
    EXPECT_EQ(pws.stats.pwsCandidates + pws.stats.oracleCandidates,
              pws.stats.inserted);
}

TEST(Inserter, PwsIgnoresPrivateData)
{
    // Same pattern but nothing is write-shared: PWS degenerates to PREF.
    ParallelTrace pt;
    pt.name = "t";
    pt.procs.resize(2);
    Trace &a = pt.procs[0];
    for (int round = 0; round < 6; ++round) {
        a.appendInstrs(200);
        a.append(TraceRecord::read(0x5000));
        for (unsigned i = 0; i < 20; ++i) {
            a.appendInstrs(20);
            a.append(TraceRecord::read(0x8000 + Addr{i} * 32));
        }
    }
    pt.procs[1].append(TraceRecord::read(0x5004)); // Read-shared only.

    const AnnotatedTrace pws = annotateTrace(pt, Strategy::PWS, kGeom);
    EXPECT_EQ(pws.stats.pwsCandidates, 0u);
}

TEST(Inserter, OverheadRatio)
{
    Trace t;
    for (int i = 0; i < 4; ++i) {
        t.appendInstrs(200);
        t.append(TraceRecord::read(0x1000 + Addr{unsigned(i)} * 32));
        t.appendInstrs(200);
        t.append(TraceRecord::read(0x1000 + Addr{unsigned(i)} * 32));
    }
    const AnnotatedTrace out =
        annotateTrace(singleProc(std::move(t)), Strategy::PREF, kGeom);
    EXPECT_EQ(out.stats.demandRefs, 8u);
    EXPECT_EQ(out.stats.inserted, 4u);
    EXPECT_NEAR(out.stats.overheadRatio(), 0.5, 1e-9);
}

TEST(Inserter, PreservesSyncAndOrder)
{
    Trace t;
    t.append(TraceRecord::lockAcquire(0));
    t.appendInstrs(300);
    t.append(TraceRecord::read(0x1000));
    t.append(TraceRecord::lockRelease(0));
    t.append(TraceRecord::barrier(0));
    const ParallelTrace in = singleProc(std::move(t));
    const AnnotatedTrace out = annotateTrace(in, Strategy::PREF, kGeom);

    // All original work still present, in order (Instr batches may be
    // split around inserted prefetches; normalisation re-coalesces).
    const auto originals = normalized(out.trace.procs[0]);
    const auto expected = normalized(in.procs[0]);
    ASSERT_EQ(originals.size(), expected.size());
    for (std::size_t i = 0; i < originals.size(); ++i)
        EXPECT_EQ(originals[i], expected[i]);
}

TEST(Inserter, PrefetchKeepsWordAddress)
{
    // False-sharing attribution needs the word, not just the line.
    Trace t;
    t.appendInstrs(300);
    t.append(TraceRecord::write(0x2014));
    const AnnotatedTrace out =
        annotateTrace(singleProc(std::move(t)), Strategy::EXCL, kGeom);
    bool found = false;
    for (const auto &r : out.trace.procs[0].records()) {
        if (isPrefetch(r.kind)) {
            EXPECT_EQ(r.addr, 0x2014u);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Inserter, MetadataCopied)
{
    ParallelTrace pt;
    pt.name = "meta";
    pt.numLocks = 3;
    pt.numBarriers = 7;
    pt.procs.resize(2);
    const AnnotatedTrace out = annotateTrace(pt, Strategy::PREF, kGeom);
    EXPECT_EQ(out.trace.name, "meta");
    EXPECT_EQ(out.trace.numLocks, 3u);
    EXPECT_EQ(out.trace.numBarriers, 7u);
    EXPECT_EQ(out.trace.numProcs(), 2u);
}

/** Per-processor annotation on a pool gives the serial result: the
 *  same records and the same stats, for every strategy. */
TEST(Inserter, ParallelExecutorMatchesSerial)
{
    WorkloadParams wp;
    wp.numProcs = 8;
    wp.refsPerProc = 6000;
    ThreadPool pool(4);
    const ForEachProc on_pool =
        [&](std::size_t n, const std::function<void(std::size_t)> &fn) {
            pool.parallelFor(n, fn);
        };
    for (const WorkloadKind app :
         {WorkloadKind::Mp3d, WorkloadKind::Water, WorkloadKind::Pverify}) {
        const ParallelTrace base = generateWorkload(app, wp);
        for (const Strategy s : allStrategies()) {
            const AnnotatedTrace serial = annotateTrace(base, s, kGeom);
            const AnnotatedTrace parallel = annotateTrace(
                base, strategyParams(s), kGeom, on_pool);
            const std::string what =
                workloadName(app) + "/" + strategyName(s);
            ASSERT_EQ(parallel.trace.numProcs(), serial.trace.numProcs())
                << what;
            for (std::size_t p = 0; p < serial.trace.numProcs(); ++p) {
                EXPECT_TRUE(parallel.trace.procs[p].records() ==
                            serial.trace.procs[p].records())
                    << what << " proc " << p;
            }
            EXPECT_EQ(parallel.trace.name, serial.trace.name);
            EXPECT_EQ(parallel.trace.numLocks, serial.trace.numLocks);
            EXPECT_EQ(parallel.trace.numBarriers, serial.trace.numBarriers);
            const AnnotateStats &a = parallel.stats;
            const AnnotateStats &b = serial.stats;
            EXPECT_EQ(a.oracleCandidates, b.oracleCandidates) << what;
            EXPECT_EQ(a.pwsCandidates, b.pwsCandidates) << what;
            EXPECT_EQ(a.inserted, b.inserted) << what;
            EXPECT_EQ(a.insertedExclusive, b.insertedExclusive) << what;
            EXPECT_EQ(a.rtwExclusive, b.rtwExclusive) << what;
            EXPECT_EQ(a.droppedShared, b.droppedShared) << what;
            EXPECT_EQ(a.demandRefs, b.demandRefs) << what;
        }
    }
}

TEST(InserterDeathTest, ZeroDistanceIsFatal)
{
    StrategyParams p;
    p.distanceCycles = 0;
    ParallelTrace pt;
    pt.procs.resize(1);
    EXPECT_EXIT(annotateTrace(pt, p, kGeom), testing::ExitedWithCode(1),
                "distance");
}

TEST(StrategyNames, RoundTripAndParams)
{
    for (auto s : allStrategies())
        EXPECT_EQ(strategyFromName(strategyName(s)), s);
    EXPECT_FALSE(strategyParams(Strategy::NP).enabled);
    EXPECT_EQ(strategyParams(Strategy::PREF).distanceCycles, 100u);
    EXPECT_EQ(strategyParams(Strategy::LPD).distanceCycles, 400u);
    EXPECT_TRUE(strategyParams(Strategy::EXCL).exclusiveWrites);
    EXPECT_TRUE(strategyParams(Strategy::PWS).prefetchWriteShared);
    EXPECT_EQ(strategyParams(Strategy::PWS).pwsFilterLines, 16u);
}

} // namespace
} // namespace prefsim
