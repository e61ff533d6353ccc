/**
 * @file
 * Tests of the verification subsystem: the finding vocabulary, the
 * invariant wrapper, the exhaustive protocol model checker (including
 * seeded-mutation detection with minimal counterexamples), and the
 * trace linter against both the shipped generators and hand-corrupted
 * fixtures.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "sim/memory_system.hh"
#include "trace/trace.hh"
#include "trace/workload.hh"
#include "verify/finding.hh"
#include "verify/invariants.hh"
#include "verify/model_checker.hh"
#include "verify/trace_lint.hh"

namespace prefsim
{
namespace
{

using namespace verify;

// ---------------------------------------------------------------- findings

TEST(Finding, ParsesRuleTaggedWhyStrings)
{
    const Finding f =
        findingFromWhy("coherence.swmr: 2 Modified copies of one line",
                       "fallback", "here");
    EXPECT_EQ(f.rule, "coherence.swmr");
    EXPECT_EQ(f.message, "2 Modified copies of one line");
    EXPECT_EQ(f.location, "here");
    EXPECT_EQ(f.severity, Severity::Error);
}

TEST(Finding, FallsBackWhenUntagged)
{
    const Finding f = findingFromWhy("Something Bad Happened", "bus.structure");
    EXPECT_EQ(f.rule, "bus.structure");
    EXPECT_EQ(f.message, "Something Bad Happened");
}

TEST(Finding, ExitCodesFollowTheConvention)
{
    std::vector<Finding> none;
    EXPECT_EQ(findingsExitCode(none), kExitOk);

    Finding warn;
    warn.severity = Severity::Warning;
    std::vector<Finding> warnings{warn};
    EXPECT_EQ(findingsExitCode(warnings), kExitOk);
    EXPECT_FALSE(anyError(warnings));

    Finding err;
    err.severity = Severity::Error;
    warnings.push_back(err);
    EXPECT_EQ(findingsExitCode(warnings), kExitViolations);
    EXPECT_TRUE(anyError(warnings));
}

TEST(Finding, JsonEmissionRoundTrips)
{
    Finding f;
    f.rule = "lock.pairing";
    f.message = "lock 3 released without being held";
    f.location = "proc 1, record 7";
    std::ostringstream os;
    {
        JsonWriter j(os);
        j.beginObject();
        writeFindingsJson(j, {f});
        j.endObject();
    }
    const auto doc = parseJson(os.str());
    ASSERT_TRUE(doc.has_value());
    const auto &arr = doc->find("findings")->array();
    ASSERT_EQ(arr.size(), 1u);
    EXPECT_EQ(arr[0].find("rule")->asString(), "lock.pairing");
    EXPECT_EQ(arr[0].find("severity")->asString(), "error");
    EXPECT_EQ(arr[0].find("location")->asString(), "proc 1, record 7");
}

// -------------------------------------------------------------- invariants

TEST(Invariants, CleanSystemHasNoFindings)
{
    std::vector<ProcStats> stats(2);
    MemorySystem mem(2, CacheGeometry(128, 32, 1), BusTiming{}, 4, stats);
    const auto findings =
        checkSystemInvariants(mem, {0, 32, 64}, "initial");
    EXPECT_TRUE(findings.empty());
}

// ----------------------------------------------------------- model checker

TEST(ModelChecker, TwoCacheSpaceIsExhaustedAndClean)
{
    ModelCheckerConfig cfg;
    cfg.numCaches = 2;
    const ModelCheckerReport rep = checkProtocol(cfg);
    EXPECT_TRUE(rep.ok()) << checkPathName(rep.counterexample);
    EXPECT_TRUE(rep.exhausted);
    // The reachable space is a fixed property of the protocol; the
    // exact count pins the encoding against accidental abstraction
    // changes (update deliberately if the protocol itself changes).
    EXPECT_GT(rep.statesVisited, 1000u);
    EXPECT_GT(rep.transitionsExplored, rep.statesVisited);
}

TEST(ModelChecker, ThreeCachePrefixIsClean)
{
    // The full 3-cache space (~630k states) is enumerated by
    // scripts/check.sh and tools/prefsim_verify; unit tests bound it to
    // keep ctest fast.
    ModelCheckerConfig cfg;
    cfg.numCaches = 3;
    cfg.maxStates = 20000;
    const ModelCheckerReport rep = checkProtocol(cfg);
    EXPECT_TRUE(rep.ok()) << checkPathName(rep.counterexample);
    EXPECT_EQ(rep.statesVisited, cfg.maxStates);
}

TEST(ModelChecker, CatchesSkippedInvalidation)
{
    ModelCheckerConfig cfg;
    cfg.numCaches = 2;
    cfg.mutation = ProtocolMutation::SkipInvalidate;
    const ModelCheckerReport rep = checkProtocol(cfg);
    ASSERT_FALSE(rep.ok());
    EXPECT_EQ(rep.findings[0].rule.rfind("coherence.", 0), 0u)
        << rep.findings[0].rule;
    // BFS guarantees a minimal counterexample; losing invalidations is
    // observable within two events (concurrent read + write fills).
    ASSERT_FALSE(rep.counterexample.empty());
    EXPECT_LE(rep.counterexample.size(), 2u)
        << checkPathName(rep.counterexample);
}

TEST(ModelChecker, CatchesSkippedDowngrade)
{
    ModelCheckerConfig cfg;
    cfg.numCaches = 2;
    cfg.mutation = ProtocolMutation::SkipDowngrade;
    const ModelCheckerReport rep = checkProtocol(cfg);
    ASSERT_FALSE(rep.ok());
    EXPECT_EQ(rep.findings[0].rule.rfind("coherence.", 0), 0u);
    EXPECT_LE(rep.counterexample.size(), 3u);
}

TEST(ModelChecker, CatchesStaleMshrTarget)
{
    ModelCheckerConfig cfg;
    cfg.numCaches = 2;
    cfg.mutation = ProtocolMutation::KeepStaleMshrTarget;
    const ModelCheckerReport rep = checkProtocol(cfg);
    ASSERT_FALSE(rep.ok());
    EXPECT_EQ(rep.findings[0].rule.rfind("coherence.", 0), 0u);
    EXPECT_LE(rep.counterexample.size(), 3u);
}

TEST(ModelChecker, CatchesSkippedHolderMark)
{
    ModelCheckerConfig cfg;
    cfg.numCaches = 2;
    cfg.mutation = ProtocolMutation::SkipHolderMark;
    const ModelCheckerReport rep = checkProtocol(cfg);
    ASSERT_FALSE(rep.ok());
    EXPECT_EQ(rep.findings[0].rule, "coherence.snoop_filter");
    // The first miss already leaves a live MSHR outside the mask.
    EXPECT_EQ(rep.counterexample.size(), 1u)
        << checkPathName(rep.counterexample);
}

// ------------------------------------------------------------ trace linter

/** A minimal well-formed two-processor trace the corruption fixtures
 *  start from: one lock episode and two barrier episodes per proc. */
ParallelTrace
cleanFixture()
{
    ParallelTrace t;
    t.name = "fixture";
    t.numLocks = 2;
    t.numBarriers = 2;
    t.procs.resize(2);
    for (auto &p : t.procs) {
        p.append(TraceRecord::instr(4));
        p.append(TraceRecord::read(0x1000));
        p.append(TraceRecord::lockAcquire(0));
        p.append(TraceRecord::write(0x1004));
        p.append(TraceRecord::lockRelease(0));
        p.append(TraceRecord::barrier(0));
        p.append(TraceRecord::prefetch(0x2000));
        p.append(TraceRecord::read(0x2000));
        p.append(TraceRecord::barrier(1));
    }
    return t;
}

/** First finding with @p rule, or nullptr. */
const Finding *
findRule(const TraceLintReport &rep, const std::string &rule)
{
    for (const Finding &f : rep.findings) {
        if (f.rule == rule)
            return &f;
    }
    return nullptr;
}

TEST(TraceLint, CleanFixturePasses)
{
    const TraceLintReport rep = lintTrace(cleanFixture());
    EXPECT_TRUE(rep.ok()) << (rep.findings.empty()
                                  ? ""
                                  : rep.findings[0].message);
    EXPECT_TRUE(rep.findings.empty());
    EXPECT_EQ(rep.stats.records, 18u);
    EXPECT_EQ(rep.stats.demandRefs, 6u);
    EXPECT_EQ(rep.stats.prefetches, 2u);
    EXPECT_EQ(rep.stats.syncOps, 8u);
}

TEST(TraceLint, AllFiveGeneratorsAreClean)
{
    WorkloadParams params;
    params.numProcs = 4;
    params.refsPerProc = 2000;
    for (WorkloadKind kind : allWorkloads()) {
        const TraceLintReport rep =
            lintTrace(generateWorkload(kind, params));
        EXPECT_TRUE(rep.ok()) << workloadName(kind) << ": "
                              << (rep.findings.empty()
                                      ? ""
                                      : rep.findings[0].message);
    }
}

TEST(TraceLint, CatchesMisalignedReference)
{
    ParallelTrace t = cleanFixture();
    t.procs[1].records()[1] = TraceRecord::read(0x1001);
    const TraceLintReport rep = lintTrace(t);
    EXPECT_FALSE(rep.ok());
    ASSERT_NE(findRule(rep, "ref.alignment"), nullptr);
    EXPECT_EQ(findRule(rep, "ref.alignment")->location, "proc 1, record 1");
}

TEST(TraceLint, CatchesOutOfRangeAddress)
{
    ParallelTrace t = cleanFixture();
    t.procs[0].records()[1] = TraceRecord::read(kNoAddr);
    const TraceLintReport rep = lintTrace(t);
    EXPECT_FALSE(rep.ok());
    EXPECT_NE(findRule(rep, "ref.bounds"), nullptr);
}

TEST(TraceLint, CatchesOutOfRangeSyncIds)
{
    ParallelTrace t = cleanFixture();
    t.procs[0].records()[2] = TraceRecord::lockAcquire(7);
    t.procs[0].records()[4] = TraceRecord::lockRelease(7);
    const TraceLintReport rep = lintTrace(t);
    EXPECT_FALSE(rep.ok());
    EXPECT_NE(findRule(rep, "lock.range"), nullptr);

    ParallelTrace b = cleanFixture();
    b.procs[1].records()[5] = TraceRecord::barrier(9);
    const TraceLintReport brep = lintTrace(b);
    EXPECT_FALSE(brep.ok());
    EXPECT_NE(findRule(brep, "barrier.range"), nullptr);
}

TEST(TraceLint, CatchesLockPairingViolations)
{
    // Re-acquiring a held lock.
    ParallelTrace t = cleanFixture();
    t.procs[0].records()[4] = TraceRecord::lockAcquire(0);
    TraceLintReport rep = lintTrace(t);
    EXPECT_FALSE(rep.ok());
    EXPECT_NE(findRule(rep, "lock.pairing"), nullptr);

    // Releasing a lock that is not held.
    t = cleanFixture();
    t.procs[0].records()[2] = TraceRecord::lockRelease(1);
    rep = lintTrace(t);
    EXPECT_FALSE(rep.ok());
    ASSERT_NE(findRule(rep, "lock.pairing"), nullptr);
    EXPECT_NE(findRule(rep, "lock.pairing")->message.find("without"),
              std::string::npos);

    // Held at end of trace.
    t = cleanFixture();
    t.procs[1].records()[4] = TraceRecord::instr(1);
    rep = lintTrace(t);
    EXPECT_FALSE(rep.ok());
    ASSERT_NE(findRule(rep, "lock.pairing"), nullptr);
    EXPECT_NE(findRule(rep, "lock.pairing")->message.find("still held"),
              std::string::npos);
}

TEST(TraceLint, CatchesBarrierEpisodeMismatch)
{
    // Count mismatch: proc 1 misses its last barrier.
    ParallelTrace t = cleanFixture();
    t.procs[1].records().pop_back();
    TraceLintReport rep = lintTrace(t);
    EXPECT_FALSE(rep.ok());
    EXPECT_NE(findRule(rep, "barrier.order"), nullptr);

    // Id divergence at the same episode.
    t = cleanFixture();
    t.procs[1].records()[5] = TraceRecord::barrier(1);
    t.procs[1].records()[8] = TraceRecord::barrier(0);
    rep = lintTrace(t);
    EXPECT_FALSE(rep.ok());
    EXPECT_NE(findRule(rep, "barrier.order"), nullptr);
}

TEST(TraceLint, LockHeldAcrossBarrierIsAWarning)
{
    // Proc 0 holds lock 1 across barrier 0 but nobody else ever takes
    // lock 1: suspicious, not fatal.
    ParallelTrace t = cleanFixture();
    t.procs[0].records()[0] = TraceRecord::lockAcquire(1);
    t.procs[0].records()[6] = TraceRecord::lockRelease(1);
    const TraceLintReport rep = lintTrace(t);
    EXPECT_TRUE(rep.ok());
    ASSERT_NE(findRule(rep, "barrier.lock_held"), nullptr);
    EXPECT_EQ(findRule(rep, "barrier.lock_held")->severity,
              Severity::Warning);
}

TEST(TraceLint, ProvesCrossPhaseLockDeadlock)
{
    // Proc 0 takes lock 1 before barrier 0 and releases after barrier 1;
    // proc 1 tries to take it between the barriers: proc 1 can never
    // arrive at barrier 1, which proc 0 needs to reach its release.
    ParallelTrace t = cleanFixture();
    t.procs[0].records()[0] = TraceRecord::lockAcquire(1);
    t.procs[0].records().push_back(TraceRecord::lockRelease(1));
    t.procs[1].records()[6] = TraceRecord::lockAcquire(1);
    t.procs[1].records()[7] = TraceRecord::lockRelease(1);
    const TraceLintReport rep = lintTrace(t);
    EXPECT_FALSE(rep.ok());
    ASSERT_NE(findRule(rep, "barrier.deadlock"), nullptr);
    EXPECT_EQ(findRule(rep, "barrier.deadlock")->severity,
              Severity::Error);
}

TEST(TraceLint, FlagsStructuralProblems)
{
    ParallelTrace empty;
    empty.name = "empty";
    const TraceLintReport rep = lintTrace(empty);
    EXPECT_FALSE(rep.ok());
    EXPECT_NE(findRule(rep, "trace.structure"), nullptr);

    ParallelTrace t = cleanFixture();
    t.procs[0].records()[0] = TraceRecord::instr(0);
    const TraceLintReport warn = lintTrace(t);
    EXPECT_TRUE(warn.ok());
    EXPECT_NE(findRule(warn, "instr.count"), nullptr);
}

TEST(TraceLint, CountsRepeatedViolationsOnce)
{
    ParallelTrace t = cleanFixture();
    t.procs[0].records()[1] = TraceRecord::read(0x1001);
    t.procs[0].records()[3] = TraceRecord::write(0x1003);
    const TraceLintReport rep = lintTrace(t);
    std::size_t alignment = 0;
    for (const Finding &f : rep.findings)
        alignment += f.rule == "ref.alignment";
    EXPECT_EQ(alignment, 1u);
    EXPECT_NE(findRule(rep, "ref.alignment")->message.find("2 occurrences"),
              std::string::npos);
}

} // namespace
} // namespace prefsim
