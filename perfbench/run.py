#!/usr/bin/env python3
"""prefsim benchmark: build, run one workload, check outputs, report.

Run from the root of a prefsim checkout:

    python3 perfbench/run.py --workload paper_grid --seed 12345 \\
        --seconds 55 --trace 0

It builds the repository's libraries, tools/validate_telemetry and
perfbench/perfbench.cc into .bench_build/ (the repository's own default
build type), refuses to report from a build without optimisation, runs
the workload in one process, and checks its outputs:

  * every point's simulated fingerprint repeats in every pass, matches
    any earlier run of the same workload and seed in this checkout
    (traced or not), and the designated point matches the cycle-loop
    oracle;
  * the observer documents pass validate_telemetry;
  * every metric BENCHMARK.json names is reported.

The last stdout line is the result object; the lines before it list each
metric with its unit, the host facts and the simulated-vs-paper table.
`--self-test` runs a smoke-size pass over every workload, checks that
every metric is printed with a unit, and checks that a deliberately
altered fingerprint is caught. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench-cmake")
WORK_DIR = os.path.join(".bench_build", "perfbench-work")
BINARY = os.path.join(BUILD_DIR, "perfbench", "prefsim_perfbench")
VALIDATOR = os.path.join(BUILD_DIR, "tools", "validate_telemetry")
HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open("BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def build():
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        raise BenchError("run from the root of a prefsim checkout "
                         "(no CMakeLists.txt or src/ here)")
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = [
            "cmake", "-S", ".", "-B", BUILD_DIR,
            "-DCMAKE_PROJECT_prefsim_INCLUDE="
            + os.path.join(HERE, "build.cmake"),
            "-DPREFSIM_BUILD_TESTS=OFF", "-DPREFSIM_BUILD_BENCH=OFF",
            "-DPREFSIM_BUILD_EXAMPLES=OFF", "-DPREFSIM_BUILD_TOOLS=ON",
            "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON",
        ]
        if subprocess.run(configure, stdout=sys.stderr).returncode:
            raise BenchError("cmake configure failed")
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs,
                       "--target", "prefsim_perfbench",
                       "validate_telemetry"],
                      stdout=sys.stderr).returncode:
        raise BenchError("build failed")
    check_optimised()


def check_optimised():
    """The cached CMAKE_BUILD_TYPE of a default configure reads empty
    (CMakeLists.txt picks RelWithDebInfo in-script), so check the flags
    each translation unit was really compiled with."""
    path = os.path.join(BUILD_DIR, "compile_commands.json")
    with open(path, encoding="utf-8") as f:
        commands = json.load(f)
    if not commands:
        raise BenchError("no compile commands in " + path)
    for entry in commands:
        args = entry.get("command", "").split()
        levels = [a for a in args if a.startswith("-O")]
        if not levels or levels[-1] in ("-O0", "-Og") \
                or "-DNDEBUG" not in args:
            raise BenchError("refusing to report from a non-optimised "
                             "build: " + entry["file"])


def validate_docs(paths):
    """Run the built validate_telemetry; returns a list of errors."""
    errors = []
    for path in paths:
        proc = subprocess.run([VALIDATOR, path], stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode:
            errors.append("validate_telemetry rejected %s: %s"
                          % (path, proc.stdout.strip()[-300:]))
    return errors


def check_fingerprints(workload, seed, refs, fingerprints):
    """Compare with the fingerprints an earlier run of the same workload
    and seed left in this checkout, or record them."""
    store = os.path.join(WORK_DIR, "fingerprints")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, "%s-seed%d-refs%d.json"
                        % (workload, seed, refs))
    if not os.path.isfile(path):
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(fingerprints, f, indent=1, sort_keys=True)
        os.replace(tmp, path)
        return []
    with open(path, encoding="utf-8") as f:
        recorded = json.load(f)
    return ["%s: fingerprint %s differs from an earlier run (%s)"
            % (label, fingerprints.get(label), fp)
            for label, fp in sorted(recorded.items())
            if fingerprints.get(label) != fp]


def run_workload(workload, seed, seconds, trace, refs=0):
    """Run one workload; returns (result line dict, report lines)."""
    spec = load_spec()
    metric_specs = spec["per_layer" if trace else "end_to_end"]
    if workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError("unknown workload " + workload)
    workdir = os.path.join(WORK_DIR, workload)
    os.makedirs(workdir, exist_ok=True)
    out = os.path.join(workdir, "result-trace%d.json" % trace)
    if os.path.exists(out):
        os.remove(out)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace),
           "--workdir", workdir, "--out", out]
    if refs:
        cmd += ["--refs", str(refs)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not os.path.isfile(out):
        lines.append("ERROR: benchmark program exited with code %d"
                     % proc.returncode)
        return ({"correct": False, "attempted": 1, "failed": 1,
                 "metrics": {}}, lines)
    with open(out, encoding="utf-8") as f:
        raw = json.load(f)

    errors = list(raw["errors"])
    failed = raw["failed"]
    doc_errors = validate_docs(raw["observer_docs"])
    fp_errors = check_fingerprints(workload, seed, refs,
                                   raw["fingerprints"])
    failed += len(doc_errors) + len(fp_errors)
    errors += doc_errors + fp_errors
    attempted = raw["attempted"] + len(raw["observer_docs"])

    metrics = {}
    for m in metric_specs:
        value = raw["metrics"].get(m["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("metric %s missing or not finite" % m["name"])
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    host = raw["host"]
    lines.append("host: nproc %d, workers %d, compiler %s, "
                 "CMAKE_BUILD_TYPE %s, flags '%s'"
                 % (host["nproc"], host["workers"], host["compiler"],
                    host["build_type"], host["cxx_flags"].strip()))
    lines.append("error_rate %.6g (%d failed of %d attempted)"
                 % (failed / attempted, failed, attempted))
    for m in metric_specs:
        if m["name"] in metrics:
            lines.append("%-30s %.6g %s (%s is better)"
                         % (m["name"], metrics[m["name"]]["value"],
                            m["unit"], m["better"]))
    for e in errors[len(raw["errors"]):]:
        lines.append("ERROR: " + e)
    result = {"correct": failed == 0 and not errors,
              "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def self_test():
    """Smoke-size runs of every workload, then a deliberately altered
    fingerprint, which must be caught."""
    spec = load_spec()
    refs = 3000
    for w in spec["workloads"]:
        for trace in (0, 1):
            result, lines = run_workload(w["name"], 1, 0, trace, refs)
            names = spec["per_layer" if trace else "end_to_end"]
            for m in names:
                if not any(l.startswith(m["name"] + " ")
                           and l.split()[2] == m["unit"] for l in lines):
                    raise BenchError("self-test: %s/%s not printed with "
                                     "unit %s" % (w["name"], m["name"],
                                                  m["unit"]))
            if not result["correct"]:
                raise BenchError("self-test: %s trace %d not correct:\n%s"
                                 % (w["name"], trace, "\n".join(lines)))
            log("self-test: %s --trace %d ok (%d metrics)"
                % (w["name"], trace, len(result["metrics"])))
    name = spec["workloads"][0]["name"]
    path = os.path.join(WORK_DIR, "fingerprints",
                        "%s-seed1-refs%d.json" % (name, refs))
    with open(path, encoding="utf-8") as f:
        recorded = json.load(f)
    label = sorted(recorded)[0]
    recorded[label] = "0" * 16
    with open(path, "w", encoding="utf-8") as f:
        json.dump(recorded, f)
    try:
        result, lines = run_workload(name, 1, 0, 0, refs)
    finally:
        os.remove(path)
    if result["correct"] or result["failed"] == 0 \
            or not any(label in l for l in lines if l.startswith("ERROR")):
        raise BenchError("self-test: altered fingerprint of %s not caught"
                         % label)
    log("self-test: altered fingerprint of %s caught" % label)
    log("self-test passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    try:
        build()
        if args.self_test:
            self_test()
            return 0
        result, lines = run_workload(args.workload, args.seed,
                                     args.seconds, args.trace)
    except (BenchError, OSError, subprocess.SubprocessError,
            ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
