#!/usr/bin/env python3
"""End-to-end benchmark of gator-cpp (see perfbench/README.md).

Run one workload; the last line of standard output is one JSON object:

    python3 perfbench/run.py --workload corpus_disk --seed 1 --seconds 20 --trace 0

`--trace 0` prints the end-to-end metrics BENCHMARK.json lists, `--trace 1`
the per-layer ones. The script builds the library and gator_perf from the
checkout's sources into .bench_build/ first (a no-op when up to date).

Two more modes:

    python3 perfbench/run.py --noise 10 --workload fleet_disk [--trace 0]
        runs one workload with seeds 1..10 and prints, per metric, the
        median, quartiles and spreads, plus the host's nproc, compiler,
        build type, steal time and load average during the runs.

    python3 perfbench/run.py --selftest
        the benchmark's own tests: the stable-API check, CLI parity
        against gator_cli on exported inputs, and a short traced run of
        every workload.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "work"
WORKLOADS = ["corpus_disk", "fleet_disk", "analysis_mem", "edit_cache"]
RUN_TIMEOUT_S = 170

# APIs the ROADMAP deletes or re-judges (items 1-3). gator_perf must not
# name them, so those items can land without editing the benchmark.
FORBIDDEN_APIS = [
    r"\bIncremental\w*", r"analysis/Incremental\.h", r"\bSolveJobs\b",
    r"solve-jobs", r"\bSccIndex\b", r"graph/SccIndex\.h",
    r"\bparallelForGrained\b", r"\bDeltaPropagation\b",
    r"\bScc(Count|MaxSize|Singletons|Small|Large|Strata|Recondensations|"
    r"IncrementalAccepts)\b",
    r"\b(ParallelRounds|ParallelClassified|TrustedAppends|TrustedDups|"
    r"DirtyFallbacks|BarrierWaves|BarrierStalls|DescPrewarmed)\b",
    r"gator_cli\.cpp",
]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures and builds gator_perf and gator_cli; exits 2 on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(BUILD), "-j", jobs,
              "--target", "gator_perf", "gator_cli"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed:", " ".join(cmd))
            sys.exit(2)


def gator_perf():
    return str(BUILD / "gator_perf")


def contract():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_workload(workload, seed, seconds, trace):
    """Runs one workload in its own process. Returns (report lines, result)."""
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    cmd = [gator_perf(), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work", str(work)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        log(f"perfbench: {workload} printed no result (exit {proc.returncode})")
        sys.exit(2)
    return lines[:-1], json.loads(lines[-1])


def select_metrics(result, trace):
    """Keeps the metrics BENCHMARK.json lists for this mode, checking units."""
    wanted = contract()["per_layer" if trace else "end_to_end"]
    out = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"perfbench: metric {m['name']} missing or not in {m['unit']}")
            sys.exit(2)
        out[m["name"]] = got
    return out


def main_run(args):
    build()
    report, result = run_workload(args.workload, args.seed, args.seconds,
                                  args.trace)
    for line in report:
        print(line)
    metrics = select_metrics(result, args.trace)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.stdout.flush()
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------- noise mode

def cpu_ticks():
    with open("/proc/stat") as f:
        fields = f.readline().split()[1:]
    ticks = [int(x) for x in fields]
    return ticks[7] if len(ticks) > 7 else 0, sum(ticks[:8])


def loadavg():
    with open("/proc/loadavg") as f:
        return " ".join(f.read().split()[:3])


def host_context():
    cache = {}
    try:
        for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
            if "=" in line and ":" in line.split("=")[0]:
                key, value = line.split("=", 1)
                cache[key.split(":")[0]] = value
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "?")
    try:
        version = subprocess.run([compiler, "--version"], text=True,
                                 stdout=subprocess.PIPE).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    return {"nproc": os.cpu_count(), "compiler": version,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "?")}


def main_noise(args):
    build()
    host = host_context()
    values = {}
    steal0, total0 = cpu_ticks()
    load_before = loadavg()
    for i in range(args.noise):
        seed = args.seed + i
        _, result = run_workload(args.workload, seed, args.seconds, args.trace)
        metrics = select_metrics(result, args.trace)
        log(f"run {i + 1}/{args.noise} seed {seed}: correct={result['correct']}")
        for name, m in metrics.items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])
    steal1, total1 = cpu_ticks()
    hz = os.sysconf("SC_CLK_TCK")
    print(f"# host: nproc {host['nproc']}, {host['compiler']}, "
          f"{host['build_type']} build")
    print(f"# steal during runs: {(steal1 - steal0) / hz:.2f} s "
          f"({(steal1 - steal0) / max(total1 - total0, 1):.2%} of all CPU "
          f"time); loadavg before {load_before}, after {loadavg()}")
    print(f"# {args.workload}, trace {args.trace}, {args.noise} runs of "
          f"{args.seconds} s, seeds {args.seed}..{args.seed + args.noise - 1}")
    print(f"# {'metric':36} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'range/med':>9}")
    for name, (unit, v) in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        rel = (lambda x: x / med if med else 0.0)
        print(f"  {name:36} {unit:6} {med:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{rel(q3 - q1):8.3f} {rel(max(v) - min(v)):9.3f}")
        print(f"  {'':36} runs: {' '.join(f'{x:.5g}' for x in v)}")
    return 0


# ------------------------------------------------------------------ selftest

def check_stable_api():
    bad = []
    for path in sorted(HERE.glob("*.cpp")) + sorted(HERE.glob("*.h")):
        for n, line in enumerate(path.read_text().splitlines(), 1):
            for pattern in FORBIDDEN_APIS:
                if re.search(pattern, line):
                    bad.append(f"{path.name}:{n}: {line.strip()}")
    for b in bad:
        log("forbidden API:", b)
    return not bad


def check_cli_parity():
    """gator_perf's answers must equal gator_cli's, app by app."""
    cli = str(BUILD / "gator-examples" / "gator_cli")
    tmp = Path(tempfile.mkdtemp(prefix="parity-", dir=WORK))
    try:
        apps = tmp / "apps"
        subprocess.run([gator_perf(), "--export", str(apps), "--fleet", "60",
                        "--seed", "7"], check=True)
        failures = 0
        dirs = sorted(p for p in apps.iterdir() if p.is_dir())
        for d in dirs:
            cli_json, perf_json = tmp / "cli.json", tmp / "perf.json"
            c = subprocess.run([cli, str(d), "--tuples", "--atg", "--lint",
                                "--no-times", "--json", str(cli_json)],
                               stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, text=True)
            cli_text = "".join(
                line for line in c.stdout.splitlines(keepends=True)
                if not line.startswith("analysis JSON written to "))
            cli_text += f"exit: {c.returncode}\n"
            p = subprocess.run([gator_perf(), "--answers", str(d), str(perf_json)],
                               stdout=subprocess.PIPE, text=True, check=True)
            same_json = cli_json.read_bytes() == perf_json.read_bytes()
            if p.stdout != cli_text or not same_json:
                failures += 1
                summary = lambda t: [l for l in t.splitlines() if l.startswith(
                    ("classes:", "precision:", "fidelity:", "exit:"))]
                log(f"parity: {d.name} differs (json same: {same_json})")
                log("  gator_cli: ", summary(cli_text))
                log("  gator_perf:", summary(p.stdout))
        log(f"parity: {len(dirs) - failures}/{len(dirs)} apps identical")
        return failures == 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def check_traced_runs():
    ok = True
    for w in WORKLOADS:
        _, result = run_workload(w, 1, 1, 1)
        metrics = result["metrics"]
        unattributed = metrics["unattributed.share"]["value"]
        log(f"{w}: correct={result['correct']} attempted={result['attempted']}"
            f" unattributed={unattributed:.4f} overhead="
            f"{metrics['trace.overhead_ratio']['value']:.4f}")
        select_metrics(result, 1)
        ok = ok and result["correct"] and unattributed <= 0.05
    return ok


def main_selftest(_args):
    api_ok = check_stable_api()
    log("stable API:", "ok" if api_ok else "FAILED")
    build()
    WORK.mkdir(parents=True, exist_ok=True)
    parity_ok = check_cli_parity()
    traced_ok = check_traced_runs()
    ok = api_ok and parity_ok and traced_ok
    print("selftest:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--noise", type=int, metavar="K")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return main_selftest(args)
    if not args.workload:
        ap.error("--workload is required")
    if args.noise:
        return main_noise(args)
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())
