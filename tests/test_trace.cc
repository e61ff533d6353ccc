/**
 * @file
 * Unit tests for trace records, traces and the text trace format.
 */

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <stdexcept>
#include <string>

#include "trace/trace.hh"
#include "trace/trace_io.hh"
#include "trace/trace_io_binary.hh"
#include "trace/trace_stats.hh"

namespace prefsim
{
namespace
{

TEST(TraceRecord, Constructors)
{
    const auto i = TraceRecord::instr(5);
    EXPECT_EQ(i.kind, RecordKind::Instr);
    EXPECT_EQ(i.count, 5u);

    const auto r = TraceRecord::read(0x1000);
    EXPECT_EQ(r.kind, RecordKind::Read);
    EXPECT_EQ(r.addr, 0x1000u);

    const auto w = TraceRecord::write(0x2000);
    EXPECT_EQ(w.kind, RecordKind::Write);

    const auto p = TraceRecord::prefetch(0x3000);
    EXPECT_EQ(p.kind, RecordKind::Prefetch);
    const auto x = TraceRecord::prefetch(0x3000, true);
    EXPECT_EQ(x.kind, RecordKind::PrefetchExcl);

    EXPECT_EQ(TraceRecord::lockAcquire(3).sync, 3u);
    EXPECT_EQ(TraceRecord::lockRelease(4).sync, 4u);
    EXPECT_EQ(TraceRecord::barrier(9).sync, 9u);
}

TEST(TraceRecord, KindPredicates)
{
    EXPECT_TRUE(isDemandRef(RecordKind::Read));
    EXPECT_TRUE(isDemandRef(RecordKind::Write));
    EXPECT_FALSE(isDemandRef(RecordKind::Prefetch));
    EXPECT_TRUE(isPrefetch(RecordKind::Prefetch));
    EXPECT_TRUE(isPrefetch(RecordKind::PrefetchExcl));
    EXPECT_FALSE(isPrefetch(RecordKind::Write));
    EXPECT_TRUE(isSync(RecordKind::Barrier));
    EXPECT_TRUE(isSync(RecordKind::LockAcquire));
    EXPECT_TRUE(isSync(RecordKind::LockRelease));
    EXPECT_FALSE(isSync(RecordKind::Instr));
}

TEST(Trace, CoalescesAdjacentInstrs)
{
    Trace t;
    t.appendInstrs(3);
    t.appendInstrs(4);
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t[0].count, 7u);

    t.append(TraceRecord::read(0x40));
    t.appendInstrs(2);
    t.append(TraceRecord::instr(5));
    ASSERT_EQ(t.size(), 3u);
    EXPECT_EQ(t[2].count, 7u);
}

TEST(Trace, ZeroInstrsDropped)
{
    Trace t;
    t.appendInstrs(0);
    EXPECT_TRUE(t.empty());
}

TEST(Trace, Counters)
{
    Trace t;
    t.appendInstrs(10);
    t.append(TraceRecord::read(0x40));
    t.append(TraceRecord::write(0x80));
    t.append(TraceRecord::prefetch(0xc0));
    t.append(TraceRecord::lockAcquire(0));
    t.append(TraceRecord::lockRelease(0));
    t.append(TraceRecord::barrier(0));

    EXPECT_EQ(t.demandRefs(), 2u);
    EXPECT_EQ(t.prefetches(), 1u);
    // 10 batched + 1 per non-instr record.
    EXPECT_EQ(t.instructions(), 16u);
}

TEST(ParallelTrace, Totals)
{
    ParallelTrace pt;
    pt.name = "x";
    pt.procs.resize(2);
    pt.procs[0].append(TraceRecord::read(0x40));
    pt.procs[0].append(TraceRecord::prefetch(0x40));
    pt.procs[1].append(TraceRecord::write(0x80));
    EXPECT_EQ(pt.numProcs(), 2u);
    EXPECT_EQ(pt.totalDemandRefs(), 2u);
    EXPECT_EQ(pt.totalPrefetches(), 1u);
}

ParallelTrace
makeSampleTrace()
{
    ParallelTrace pt;
    pt.name = "sample";
    pt.numLocks = 2;
    pt.numBarriers = 1;
    pt.procs.resize(2);
    Trace &a = pt.procs[0];
    a.appendInstrs(12);
    a.append(TraceRecord::read(0xabc0));
    a.append(TraceRecord::write(0xdef4));
    a.append(TraceRecord::prefetch(0x1234));
    a.append(TraceRecord::prefetch(0x5678, true));
    a.append(TraceRecord::lockAcquire(1));
    a.append(TraceRecord::lockRelease(1));
    a.append(TraceRecord::barrier(0));
    Trace &b = pt.procs[1];
    b.append(TraceRecord::read(0x40));
    b.append(TraceRecord::barrier(0));
    return pt;
}

TEST(TraceIo, RoundTrip)
{
    const ParallelTrace pt = makeSampleTrace();
    std::stringstream ss;
    writeTrace(ss, pt);
    const ParallelTrace back = readTrace(ss);

    EXPECT_EQ(back.name, pt.name);
    EXPECT_EQ(back.numLocks, pt.numLocks);
    EXPECT_EQ(back.numBarriers, pt.numBarriers);
    ASSERT_EQ(back.numProcs(), pt.numProcs());
    for (std::size_t p = 0; p < pt.numProcs(); ++p) {
        ASSERT_EQ(back.procs[p].size(), pt.procs[p].size()) << "proc " << p;
        for (std::size_t i = 0; i < pt.procs[p].size(); ++i)
            EXPECT_EQ(back.procs[p][i], pt.procs[p][i]);
    }
}

TEST(TraceIo, CommentsAndBlankLinesIgnored)
{
    std::stringstream ss;
    ss << "prefsim-trace v1\n# a comment\n\nname tiny\n"
       << "procs 1 locks 0 barriers 0\nproc 0\n# another\nR 1f40\n";
    const ParallelTrace pt = readTrace(ss);
    ASSERT_EQ(pt.procs[0].size(), 1u);
    EXPECT_EQ(pt.procs[0][0].addr, 0x1f40u);
}

TEST(TraceIo, RejectsMissingHeader)
{
    std::stringstream ss("name x\nprocs 1 locks 0 barriers 0\n");
    EXPECT_THROW(readTrace(ss), std::runtime_error);
}

TEST(TraceIo, RejectsRecordBeforeProc)
{
    std::stringstream ss(
        "prefsim-trace v1\nname x\nprocs 1 locks 0 barriers 0\nR 40\n");
    EXPECT_THROW(readTrace(ss), std::runtime_error);
}

TEST(TraceIo, RejectsBadProcId)
{
    std::stringstream ss(
        "prefsim-trace v1\nname x\nprocs 1 locks 0 barriers 0\nproc 7\n");
    EXPECT_THROW(readTrace(ss), std::runtime_error);
}

TEST(TraceIo, RejectsUnknownTag)
{
    std::stringstream ss("prefsim-trace v1\nname x\n"
                         "procs 1 locks 0 barriers 0\nproc 0\nZ 40\n");
    EXPECT_THROW(readTrace(ss), std::runtime_error);
}

TEST(TraceIo, RejectsBadAddress)
{
    std::stringstream ss("prefsim-trace v1\nname x\n"
                         "procs 1 locks 0 barriers 0\nproc 0\nR zz!\n");
    EXPECT_THROW(readTrace(ss), std::runtime_error);
}

TEST(TraceIo, FileRoundTrip)
{
    const ParallelTrace pt = makeSampleTrace();
    const std::string path =
        testing::TempDir() + "/prefsim_trace_roundtrip.txt";
    writeTraceFile(path, pt);
    const ParallelTrace back = readTraceFile(path);
    EXPECT_EQ(back.totalDemandRefs(), pt.totalDemandRefs());
    EXPECT_EQ(back.totalPrefetches(), pt.totalPrefetches());
}

TEST(TraceStats, CountsEverything)
{
    const ParallelTrace pt = makeSampleTrace();
    const TraceStats s = computeTraceStats(pt, 32);
    EXPECT_EQ(s.numProcs, 2u);
    EXPECT_EQ(s.totalReads, 2u);
    EXPECT_EQ(s.totalWrites, 1u);
    EXPECT_EQ(s.totalRefs, 3u);
    EXPECT_EQ(s.totalPrefetches, 2u);
    EXPECT_EQ(s.lockAcquires, 1u);
    EXPECT_EQ(s.barriersCrossed, 1u);
    EXPECT_NEAR(s.writeFraction(), 1.0 / 3.0, 1e-9);
    // Three distinct demand lines touched: 0xabc0, 0xdee0, 0x40.
    EXPECT_EQ(s.footprintBytes, 3u * 32);
}


TEST(TraceIoBinary, RoundTrip)
{
    const ParallelTrace pt = makeSampleTrace();
    std::stringstream ss(std::ios::in | std::ios::out |
                         std::ios::binary);
    writeTraceBinary(ss, pt);
    const ParallelTrace back = readTraceBinary(ss);
    EXPECT_EQ(back.name, pt.name);
    EXPECT_EQ(back.numLocks, pt.numLocks);
    EXPECT_EQ(back.numBarriers, pt.numBarriers);
    ASSERT_EQ(back.numProcs(), pt.numProcs());
    for (std::size_t p = 0; p < pt.numProcs(); ++p) {
        ASSERT_EQ(back.procs[p].size(), pt.procs[p].size());
        for (std::size_t i = 0; i < pt.procs[p].size(); ++i)
            EXPECT_EQ(back.procs[p][i], pt.procs[p][i]);
    }
}

TEST(TraceIoBinary, SmallerThanText)
{
    const ParallelTrace pt = makeSampleTrace();
    std::stringstream text, bin;
    writeTrace(text, pt);
    writeTraceBinary(bin, pt);
    EXPECT_LT(bin.str().size(), text.str().size());
}

TEST(TraceIoBinary, RejectsBadMagic)
{
    std::stringstream ss;
    ss << "nope";
    EXPECT_THROW(readTraceBinary(ss), std::runtime_error);
}

TEST(TraceIoBinary, RejectsTruncation)
{
    const ParallelTrace pt = makeSampleTrace();
    std::stringstream ss;
    writeTraceBinary(ss, pt);
    std::string bytes = ss.str();
    bytes.resize(bytes.size() / 2);
    std::stringstream half(bytes);
    EXPECT_THROW(readTraceBinary(half), std::runtime_error);
}

TEST(TraceIoBinary, AutoDetectsBothFormats)
{
    const ParallelTrace pt = makeSampleTrace();
    const std::string text_path =
        testing::TempDir() + "/prefsim_auto_text.txt";
    const std::string bin_path =
        testing::TempDir() + "/prefsim_auto_bin.trc";
    writeTraceFile(text_path, pt);
    writeTraceBinaryFile(bin_path, pt);
    EXPECT_EQ(readTraceAutoFile(text_path).totalDemandRefs(),
              pt.totalDemandRefs());
    EXPECT_EQ(readTraceAutoFile(bin_path).totalDemandRefs(),
              pt.totalDemandRefs());
}

TEST(TraceIoBinary, LargeDeltasAndAllKinds)
{
    // Address deltas that go far negative and spread across regions.
    ParallelTrace pt;
    pt.name = "deltas";
    pt.procs.resize(1);
    Trace &t = pt.procs[0];
    t.append(TraceRecord::read(0xffff'ffff'0000ULL));
    t.append(TraceRecord::write(0x10));
    t.append(TraceRecord::prefetch(0x7fff'0000, true));
    t.appendInstrs(1 << 30);
    t.append(TraceRecord::barrier(4000000));
    std::stringstream ss;
    writeTraceBinary(ss, pt);
    const ParallelTrace back = readTraceBinary(ss);
    ASSERT_EQ(back.procs[0].size(), pt.procs[0].size());
    for (std::size_t i = 0; i < pt.procs[0].size(); ++i)
        EXPECT_EQ(back.procs[0][i], pt.procs[0][i]);
}

/** The binary image of @p pt. */
std::string
binaryImage(const ParallelTrace &pt)
{
    std::ostringstream os;
    writeTraceBinary(os, pt);
    return os.str();
}

/** The reader's complaint about @p bytes ("" when they parse). Only a
 *  std::runtime_error is a complaint; anything else fails the test. */
std::string
readError(const std::string &bytes)
{
    std::istringstream is(bytes);
    try {
        readTraceBinary(is);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

TEST(TraceIoBinary, KeepsEveryErrorMessage)
{
    const std::string hdr = std::string("PFS2") + '\x01' + '\x00' + '\x00';
    EXPECT_EQ(readError("PFS"), "binary trace: bad magic");
    EXPECT_EQ(readError("PFS2"), "binary trace: truncated varint");
    EXPECT_EQ(readError(std::string("PFS2") + '\x21'),
              "binary trace: too many processors");
    EXPECT_EQ(readError("PFS2" + std::string(10, '\xff')),
              "binary trace: varint overflow");
    EXPECT_EQ(readError(hdr + "\x89\x28"), "binary trace: oversized name");
    EXPECT_EQ(readError(hdr + "\x05" + "ab"), "binary trace: truncated name");
    // One processor, two records: an instruction batch, then nothing.
    EXPECT_EQ(readError(hdr + '\x00' + '\x02' + '\x00' + '\x05'),
              "binary trace: truncated record");
    // A read whose address delta never ends.
    EXPECT_EQ(readError(hdr + '\x00' + '\x01' + '\x01' + '\x80'),
              "binary trace: truncated varint");
    EXPECT_EQ(readError(hdr + '\x00' + '\x01' + '\xc8'),
              "binary trace: unknown record tag 200");
    // A record count the image cannot hold is a truncation, not an
    // allocation of that many records.
    EXPECT_EQ(readError(hdr + '\x00' + "\xff\xff\xff\xff\xff\xff\x7f"),
              "binary trace: truncated record");
}

TEST(TraceIoBinary, EveryTruncationThrows)
{
    const std::string image = binaryImage(makeSampleTrace());
    EXPECT_EQ(readError(image), "");
    for (std::size_t n = 0; n < image.size(); ++n)
        EXPECT_NE(readError(image.substr(0, n)), "") << "length " << n;
}

TEST(TraceIoBinary, ByteFlipsThrowOrParse)
{
    // Deterministic mutation loop: each mutant overwrites one to four
    // bytes of a small trace with fixed-seed random values. Every
    // mutant must either parse or be rejected with std::runtime_error;
    // anything else (another exception, an abort, a sanitizer report
    // in the ASan+UBSan build) fails.
    const std::string image = binaryImage(makeSampleTrace());
    std::mt19937_64 rng(424242);
    unsigned parsed = 0;
    for (int mutant = 0; mutant < 4000; ++mutant) {
        std::string bytes = image;
        const int flips = 1 + static_cast<int>(rng() % 4);
        for (int f = 0; f < flips; ++f)
            bytes[rng() % bytes.size()] = static_cast<char>(rng() & 0xff);
        if (readError(bytes).empty())
            ++parsed;
    }
    // Both outcomes occur: the loop reaches past the header.
    EXPECT_GT(parsed, 0u);
    EXPECT_LT(parsed, 4000u);
}

} // namespace
} // namespace prefsim
