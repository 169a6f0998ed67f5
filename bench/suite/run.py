#!/usr/bin/env python3
"""The repo benchmark: build the driver, run workloads, check, report.

Dependency-free (stdlib only). Run from the repository root:

  One run of one workload (the interface BENCHMARK.json names; the last
  stdout line is one JSON object with correct/attempted/failed/metrics):
    python3 bench/suite/run.py --workload fwd_tiny_b1 --seed 1 \\
        --seconds 10 --trace 0

  --trace 1 re-runs the workload with tracing on and reports the
  per-layer metrics instead of the end-to-end ones, writes one Chrome
  trace per workload to build-bench/traces/, validates it with
  scripts/check_trace.py and prints the self time of every span name.

  Every workload at ~1/20 length, checking metric names against
  BENCHMARK.json in both directions:
    python3 bench/suite/run.py --smoke

  Prove the output checks are live (injects faults, expects failures):
    python3 bench/suite/run.py --selftest

  Record N runs per workload (seeds seed .. seed+N-1) with medians
  and quartiles; an existing FILE is extended, so runs of two commits
  can be interleaved one seed at a time:
    python3 bench/suite/run.py --repeat 10 --out runs.json

  Judge a change against its parent (choosing-metrics rules, bounds
  from BENCHMARK.json), one row per workload:
    python3 bench/suite/run.py --compare parent.json change.json

The driver (vitcod_bench) builds into build-bench/ as its own CMake
project (bench/suite/CMakeLists.txt) that compiles libvitcod from the
repository sources.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
BUILD = ROOT / "build-bench"
BINARY = BUILD / "vitcod_bench"
TRACE_DIR = BUILD / "traces"
SPEC_FILE = ROOT / "BENCHMARK.json"
CHECK_TRACE = ROOT / "scripts" / "check_trace.py"

DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
SMOKE_FRACTION = 1 / 20
SELFTEST_WORKLOADS = ("fwd_tiny_b1", "serve_burst")


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout):
    """subprocess.run in a process group of its own: on timeout the
    whole group (a build's compilers too) is killed and reaped before
    TimeoutExpired propagates."""
    with subprocess.Popen(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as p:
        try:
            out, err = p.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(p.pid, signal.SIGKILL)
            p.communicate()
            raise
    return subprocess.CompletedProcess(cmd, p.returncode, out, err)


def load_spec():
    try:
        with open(SPEC_FILE) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        die(f"cannot read {SPEC_FILE}: {e}")


def build():
    """Configure once, then (re)build the driver; output only on error."""
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src").is_dir():
        die(f"no repository sources at {ROOT}; cannot build the driver")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(SUITE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "vitcod_bench", "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        try:
            p = run(cmd, BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            die(f"build step {cmd[:2]} failed: {e}")
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:] + p.stderr[-4000:])
            die(f"build step {' '.join(cmd[:2])} exited {p.returncode}")


def run_driver(workload, seed, seconds, trace=False, smoke=False,
               fault=False):
    """One driver process; returns its parsed JSON result."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds))]
    if trace:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(TRACE_DIR / f"{workload}.json")]
    if smoke:
        cmd.append("--smoke")
    if fault:
        cmd.append("--inject-fault")
    try:
        p = run(cmd, DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload}: driver exceeded {DRIVER_TIMEOUT_S} s")
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-4000:])
        die(f"{workload}: driver exited {p.returncode}")
    lines = p.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        die(f"{workload}: driver printed no JSON result")
    for group in ("end_to_end", "per_layer"):
        for name, m in res[group].items():
            if not isinstance(m["value"], (int, float)):
                die(f"{workload}: metric {name} is not a number")
    return res


def declared(spec, group):
    return {m["name"]: m for m in spec[group]}


def name_problems(spec, res, traced):
    """Names the driver emitted that BENCHMARK.json does not declare,
    and end-to-end names it declares but the run did not emit."""
    problems = []
    e2e, layers = declared(spec, "end_to_end"), declared(spec,
                                                         "per_layer")
    got = set(res["end_to_end"])
    for n in sorted(got - set(e2e)):
        problems.append(f"end-to-end metric {n} is not declared")
    for n in sorted(set(e2e) - got):
        problems.append(f"end-to-end metric {n} was not emitted")
    if traced:
        for n in sorted(set(res["per_layer"]) - set(layers)):
            problems.append(f"per-layer metric {n} is not declared")
    for group, decl in (("end_to_end", e2e), ("per_layer", layers)):
        for n, m in res[group].items():
            if n in decl and m["unit"] != decl[n]["unit"]:
                problems.append(f"{n}: unit {m['unit']} but declared "
                                f"{decl[n]['unit']}")
    return problems


def result_metrics(spec, res, traced):
    """The reported metrics: every end-to-end metric, or (traced)
    every per-layer metric — 0 for a layer the workload never calls."""
    group = "per_layer" if traced else "end_to_end"
    out = {}
    for m in spec[group]:
        got = res[group].get(m["name"])
        value = got["value"] if got else 0
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def self_times(path):
    """Per span name: calls, total and self microseconds. Self time is
    a span's duration minus the parts its children on the same thread
    cover."""
    with open(path) as f:
        events = [e for e in json.load(f)["traceEvents"]
                  if e.get("ph") == "X"]
    tracks = {}
    for e in events:
        tracks.setdefault((e["pid"], e["tid"]), []).append(e)
    table = {}
    for evs in tracks.values():
        # A bench span wraps the library call it times, so on a tie
        # it is the parent.
        evs.sort(key=lambda e: (e["ts"], -e["dur"],
                                e.get("cat") != "bench"))
        stack = []  # [event, covered_by_children]
        for e in evs:
            while stack and stack[-1][0]["ts"] + stack[-1][0]["dur"] \
                    <= e["ts"]:
                close_span(table, stack.pop())
            if stack:
                parent = stack[-1][0]
                end = min(e["ts"] + e["dur"],
                          parent["ts"] + parent["dur"])
                stack[-1][1] += max(0, end - e["ts"])
            stack.append([e, 0])
        while stack:
            close_span(table, stack.pop())
    return table


def close_span(table, entry):
    e, covered = entry
    row = table.setdefault(e["name"], [0, 0, 0])
    row[0] += 1
    row[1] += e["dur"]
    row[2] += max(0, e["dur"] - covered)


def print_metrics(title, metrics):
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}")


def print_self_times(table):
    print("span self time (outside calls are bench.*-category spans; "
          "the rest are the library's own)")
    print(f"  {'span':<34} {'calls':>8} {'total ms':>12} {'self ms':>12}")
    for name, (calls, total, own) in sorted(
            table.items(), key=lambda kv: -kv[1][2]):
        print(f"  {name:<34} {calls:>8} {total / 1e3:>12.3f} "
              f"{own / 1e3:>12.3f}")


def check_trace_file(path):
    """scripts/check_trace.py, read-only; True when the trace passes."""
    p = run([sys.executable, str(CHECK_TRACE), str(path)], 120)
    print(p.stdout.strip())
    return p.returncode == 0


def one_run(args, spec):
    build()
    traced = args.trace == 1
    res = run_driver(args.workload, args.seed, args.seconds, traced)
    problems = name_problems(spec, res, traced)
    if problems:
        die(f"{args.workload}: " + "; ".join(problems))
    metrics = result_metrics(spec, res, traced)
    ok = res["failed"] == 0
    print(f"workload {args.workload}  seed {args.seed}  "
          f"isa {res['isa']}")
    if traced:
        trace = TRACE_DIR / f"{args.workload}.json"
        ok = check_trace_file(trace) and ok
        print_self_times(self_times(trace))
        print_metrics("per-layer metrics", metrics)
    else:
        print_metrics("end-to-end metrics", metrics)
    print(f"  {'failed_frac':<34} "
          f"{res['failed'] / max(1, res['attempted']):>16.6g} fraction "
          f"({res['failed']} of {res['attempted']} operations)")
    print(json.dumps({"correct": ok, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


def smoke(args, spec):
    build()
    seconds = spec["run_seconds"] * SMOKE_FRACTION
    emitted_layers, failures = set(), []
    for w in spec["workloads"]:
        name = w["name"]
        res = run_driver(name, args.seed, seconds, trace=True,
                         smoke=True)
        failures += [f"{name}: {p}" for p in name_problems(spec, res,
                                                           True)]
        emitted_layers |= set(res["per_layer"])
        if res["failed"]:
            failures.append(f"{name}: {res['failed']} of "
                            f"{res['attempted']} operations failed")
        if not check_trace_file(TRACE_DIR / f"{name}.json"):
            failures.append(f"{name}: trace failed check_trace.py")
        print(f"smoke {name}: attempted {res['attempted']} failed "
              f"{res['failed']}")
    for n in sorted(set(declared(spec, "per_layer")) - emitted_layers):
        failures.append(f"per-layer metric {n} is emitted by no workload")
    for f in failures:
        print(f"FAIL {f}")
    print("smoke: " + ("ok" if not failures else "FAILED"))
    return 0 if not failures else 1


def selftest(args, spec):
    build()
    seconds = spec["run_seconds"] * SMOKE_FRACTION
    bad = 0
    for name in SELFTEST_WORKLOADS:
        res = run_driver(name, args.seed, seconds, smoke=True,
                         fault=True)
        frac = res["failed"] / max(1, res["attempted"])
        live = frac > 0
        bad += not live
        print(f"selftest {name}: injected fault -> failed_frac "
              f"{frac:.6g} ({'detected' if live else 'MISSED'})")
    print("selftest: " + ("ok" if not bad else "FAILED"))
    return 1 if bad else 0


def summarize(runs):
    out = {}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) \
            if len(vals) > 1 else (med, med, med)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "unit": runs[0]["metrics"][name]["unit"]}
    return out


def repeat(args, spec):
    build()
    out = Path(args.out)
    data = {"host": {}, "seconds": args.seconds, "workloads": {}}
    if out.exists():
        with open(out) as f:
            data = json.load(f)
        if data["seconds"] != args.seconds:
            die(f"{out} holds {data['seconds']} s runs, not "
                f"{args.seconds} s")
    names = [args.workload] if args.workload else \
        [w["name"] for w in spec["workloads"]]
    for name in names:
        runs = data["workloads"].setdefault(name, {"runs": []})["runs"]
        for i in range(args.repeat):
            seed = args.seed + i
            res = run_driver(name, seed, args.seconds)
            runs.append({"seed": seed, "attempted": res["attempted"],
                         "failed": res["failed"],
                         "metrics": result_metrics(spec, res, False)})
            data["host"] = host_info(res)
            print(f"{name} seed {seed}: failed {res['failed']}/"
                  f"{res['attempted']}", file=sys.stderr)
        data["workloads"][name]["summary"] = summarize(runs)
    with open(out, "w") as f:
        json.dump(data, f, indent=1)
        f.write("\n")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':<14} {'metric':<18} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}")
    for name in names:
        wl = data["workloads"][name]
        for metric, s in wl["summary"].items():
            print(f"{name:<14} {metric:<18} {s['median']:>12.6g} "
                  f"{s['q1']:>12.6g} {s['q3']:>12.6g} "
                  f"{s['spread']:>8.4f} {bounds[metric]:>6}")
        failed = sum(r["failed"] for r in wl["runs"])
        print(f"{name:<14} failed operations over {len(wl['runs'])} "
              f"runs: {failed}")
    return 0


def host_info(res):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "isa": res["isa"],
            "system": platform.platform(),
            "python": platform.python_version()}


def verdict(metric, parent, change, bound):
    """choosing-metrics section 8 for one (metric, workload) pair."""
    sign = 1 if metric["better"] == "lower" else -1
    pv = [r["metrics"][metric["name"]]["value"] for r in parent]
    cv = [r["metrics"][metric["name"]]["value"] for r in change]
    pmed, cmed = statistics.median(pv), statistics.median(cv)
    q1, _, q3 = statistics.quantiles(pv, n=4) if len(pv) > 1 else \
        (pmed, pmed, pmed)
    pairs = list(zip(pv, cv))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    worse = sign * (cmed - pmed) / pmed if pmed else 0.0
    spread = (q3 - q1) / pmed if pmed else 0.0
    all_better = all(sign * (p - c) > 0 for p in pv for c in cv)
    if pairs and wins >= 0.9 * len(pairs) and abs(cmed - pmed) > q3 - q1:
        v = "improved"
    elif spread > bound and not all_better:
        v = "unresolved"
    elif worse > bound:
        v = "regressed"
    else:
        v = "unchanged"
    return v, f"{pmed:.6g} -> {cmed:.6g} ({-worse:+.2%} better, " \
              f"wins {wins}/{len(pairs)}, parent spread {spread:.2%})"


def compare(args, spec):
    with open(args.compare[0]) as f:
        parent = json.load(f)
    with open(args.compare[1]) as f:
        change = json.load(f)
    order = ("regressed", "unresolved", "improved", "unchanged")
    worst = "unchanged"
    for w in spec["workloads"]:
        name = w["name"]
        if name not in parent["workloads"] or \
                name not in change["workloads"]:
            print(f"{name:<14} missing from one side")
            continue
        pr = parent["workloads"][name]["runs"]
        cr = change["workloads"][name]["runs"]
        rows = [(m["name"],) + verdict(m, pr, cr, m["bound"])
                for m in spec["end_to_end"]]
        row = min((v for _, v, _ in rows), key=order.index)
        if order.index(row) < order.index(worst):
            worst = row
        print(f"{name:<14} {row}")
        for metric, v, detail in rows:
            print(f"  {metric:<18} {v:<10} {detail}")
    return 1 if worst == "regressed" else 0


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--repeat", type=int, metavar="N")
    ap.add_argument("--out", metavar="FILE")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = ap.parse_args()

    if args.compare:
        return compare(args, spec)
    if args.smoke:
        return smoke(args, spec)
    if args.selftest:
        return selftest(args, spec)
    if args.repeat:
        if not args.out:
            die("--repeat needs --out FILE")
        return repeat(args, spec)
    if not args.workload:
        die("--workload is required for a single run")
    one_run(args, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
