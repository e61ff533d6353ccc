/**
 * @file
 * Example/tool: drive the simulator from a trace file.
 *
 * prefsim's simulator is trace-driven exactly like the paper's Charlie,
 * so it can consume externally produced traces in the v1 text format
 * (see trace/trace_io.hh). This tool closes the loop:
 *
 *   run_trace --dump mp3d trace.txt          # write a workload's trace
 *   run_trace trace.txt PWS 8                # annotate + simulate it
 *   run_trace trace.txt NP 8 --ways 2 --victim 4
 *
 * Options: --ways N, --victim N, --cache KB, --line B, --distance N,
 *          --buffer N (prefetch buffer depth).
 *
 * A trace that cannot be read, or that the linter finds structurally
 * broken (unpaired locks, mismatched barrier ids, ...), is reported
 * with exit status 1 before anything is simulated.
 */

#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "prefetch/inserter.hh"
#include "stats/json.hh"
#include "stats/table.hh"
#include "trace/trace_io.hh"
#include "trace/trace_io_binary.hh"
#include "trace/trace_stats.hh"
#include "verify/trace_lint.hh"

using namespace prefsim;

namespace
{

[[noreturn]] void
usage()
{
    std::cerr
        << "usage:\n"
        << "  run_trace --dump|--dump-bin <workload> <file>\n"
        << "  run_trace <file> <strategy> <transfer> [options]\n"
        << "options: --ways N --victim N --cache KB --line B "
           "--distance N --buffer N --json\n";
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.size() >= 3 &&
        (args[0] == "--dump" || args[0] == "--dump-bin")) {
        const WorkloadKind kind = workloadFromName(args[1]);
        const ParallelTrace t =
            generateWorkload(kind, defaultWorkloadParams());
        if (args[0] == "--dump-bin")
            writeTraceBinaryFile(args[2], t);
        else
            writeTraceFile(args[2], t);
        std::cout << "wrote " << t.totalDemandRefs() << " refs ("
                  << t.numProcs() << " procs) to " << args[2] << "\n";
        return 0;
    }
    if (args.size() < 3)
        usage();

    ParallelTrace trace;
    try {
        trace = readTraceAutoFile(args[0]);
    } catch (const std::runtime_error &e) {
        std::cerr << "run_trace: " << args[0] << ": " << e.what() << "\n";
        return 1;
    }
    // The simulator treats sync misuse as an internal invariant, so a
    // broken user trace is stopped here with the linter's findings.
    const verify::TraceLintReport lint = verify::lintTrace(trace);
    if (!lint.ok()) {
        std::cerr << "run_trace: " << args[0]
                  << " is not a valid trace:\n";
        verify::writeFindingsText(std::cerr, lint.findings);
        return 1;
    }
    const Strategy strategy = strategyFromName(args[1]);
    const Cycle transfer = std::strtoul(args[2].c_str(), nullptr, 10);

    std::uint32_t cache_kb = 32, line = 32, ways = 1;
    unsigned victim = 0, buffer = 16;
    bool json = false;
    StrategyParams sp = strategyParams(strategy);
    for (std::size_t i = 3; i + 1 < args.size() + 1; ++i) {
        auto next = [&]() -> std::uint32_t {
            if (i + 1 >= args.size())
                usage();
            return static_cast<std::uint32_t>(
                std::strtoul(args[++i].c_str(), nullptr, 10));
        };
        if (args[i] == "--ways")
            ways = next();
        else if (args[i] == "--victim")
            victim = next();
        else if (args[i] == "--cache")
            cache_kb = next();
        else if (args[i] == "--line")
            line = next();
        else if (args[i] == "--distance")
            sp.distanceCycles = next();
        else if (args[i] == "--buffer")
            buffer = next();
        else if (args[i] == "--json")
            json = true;
        else
            usage();
    }

    const CacheGeometry geom(cache_kb * 1024, line, ways);
    if (!json) {
        const TraceStats ts = computeTraceStats(trace, geom.lineBytes());
        std::cout << "trace '" << trace.name << "': " << trace.numProcs()
                  << " procs, " << ts.totalRefs << " refs, footprint "
                  << ts.footprintBytes / 1024 << " KB ("
                  << ts.writeSharedFootprintBytes / 1024
                  << " KB write-shared)\n";
    }

    const AnnotatedTrace ann = annotateTrace(trace, sp, geom);
    SimConfig cfg;
    cfg.geometry = geom;
    cfg.timing.dataTransfer = transfer;
    cfg.prefetchBufferDepth = buffer;
    cfg.victimEntries = victim;
    const SimStats s = simulate(ann.trace, cfg);

    if (json) {
        writeJson(std::cout, s,
                  trace.name + "/" + strategyName(strategy) + "@" +
                      std::to_string(transfer));
        return 0;
    }

    TextTable t({"metric", "value"});
    t.addRow({"execution cycles", TextTable::count(s.cycles)});
    t.addRow({"CPU miss rate", TextTable::percent(s.cpuMissRate())});
    t.addRow({"adjusted CPU miss rate",
              TextTable::percent(s.adjustedCpuMissRate())});
    t.addRow({"total miss rate", TextTable::percent(s.totalMissRate())});
    t.addRow({"invalidation miss rate",
              TextTable::percent(s.invalidationMissRate())});
    t.addRow({"false-sharing miss rate",
              TextTable::percent(s.falseSharingMissRate())});
    t.addRow({"bus utilization", TextTable::num(s.busUtilization())});
    t.addRow({"processor utilization",
              TextTable::num(s.avgProcUtilization())});
    t.addRow({"prefetches inserted",
              TextTable::count(ann.stats.inserted)});
    t.print(std::cout);
    return 0;
}
