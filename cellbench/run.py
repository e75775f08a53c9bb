#!/usr/bin/env python3
"""Build and run the swsec per-cell benchmark.

Run one workload (from the repository root):

    python3 cellbench/run.py --workload matrix --seed 1 --seconds 30 --trace 0

The first call configures and builds cellbench/ (Release) into
$CARGO_TARGET_DIR/cellbench, or .bench_build/cellbench when the variable is
unset; later calls only re-check the build.  The benchmark binary's output is
passed through, so the last stdout line is the result object; a copy of it
with the run's provenance is saved under <build dir>/results/.

Run every workload listed in BENCHMARK.json, one after another:

    python3 cellbench/run.py all --seed 1 --seconds 30

Compare two sets of saved results (refused when host or build differ):

    python3 cellbench/run.py compare BASE.json ... -- NEW.json ...
"""

import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170
# Provenance fields two results must share to be comparable.
SAME_HOST_AND_BUILD = ("nproc", "usable_cpus", "cpu", "build_type", "cxx_flags", "compiler")


def build_root():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Configure once, then bring the binary up to date; returns its path."""
    bdir = build_root() / "cellbench"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "cellbench"), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "cellbench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True, check=False)
        except OSError as e:
            sys.exit(f"cellbench: cannot run {cmd[0]}: {e}")
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.exit(f"cellbench: build step failed: {' '.join(cmd)}")
    return bdir / "cellbench"


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, check=True).stdout.strip()
            return "git:" + head
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "cellbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return "sha256:" + h.hexdigest()[:16]


def run(argv):
    args = {}
    it = iter(argv)
    for k in it:
        if k not in ("--workload", "--seed", "--seconds", "--trace"):
            sys.exit(f"cellbench: unknown argument {k}")
        args[k] = next(it, None)
    if None in args.values() or len(args) != 4:
        sys.exit("usage: run.py --workload W --seed N --seconds S --trace 0|1")

    binary = build()
    results = build_root() / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args['--workload']}-seed{args['--seed']}-trace{args['--trace']}"
    cmd = [str(binary)] + [x for kv in args.items() for x in kv]
    cmd += ["--source", source_id(), "--spans-out", str(results / (stem + "-spans.jsonl"))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        sys.exit(f"cellbench: {stem} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if lines and lines[-1].startswith("{") and lines[0].startswith("provenance "):
        record = {
            "provenance": json.loads(lines[0][len("provenance "):]),
            "result": json.loads(lines[-1]),
            "work_digest": next((ln.split(": ")[-1].split()[0] for ln in lines
                                 if "work digest" in ln), None),
        }
        (results / (stem + ".json")).write_text(json.dumps(record, indent=1) + "\n")
    return done.returncode


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(argv):
    if "--" not in argv:
        sys.exit("usage: run.py compare BASE.json ... -- NEW.json ...")
    cut = argv.index("--")
    sides = [[json.loads(Path(p).read_text()) for p in argv[:cut]],
             [json.loads(Path(p).read_text()) for p in argv[cut + 1:]]]
    if not sides[0] or not sides[1]:
        sys.exit("cellbench compare: each side needs at least one result file")
    ref = sides[0][0]["provenance"]
    for rec in sides[0] + sides[1]:
        for k in SAME_HOST_AND_BUILD:
            if rec["provenance"].get(k) != ref.get(k):
                sys.exit(f"cellbench compare: refusing, {k} differs: "
                         f"{ref.get(k)!r} vs {rec['provenance'].get(k)!r}")
    # Same source, workload and seed must reproduce the same work.
    digests = {}
    for rec in sides[0] + sides[1]:
        p = rec["provenance"]
        if rec.get("work_digest") is None:
            continue
        key = (p["source"], p["workload"], p["seed"])
        if digests.setdefault(key, rec["work_digest"]) != rec["work_digest"]:
            print(f"cellbench compare: work counters differ for {key}")
            return 1
    table = {}
    for side, recs in enumerate(sides):
        for rec in recs:
            wl = rec["provenance"]["workload"]
            for name, m in rec["result"]["metrics"].items():
                table.setdefault((wl, name), ([], [], m["unit"]))[side].append(m["value"])
    print(f"{'workload':12} {'metric':28} {'base median':>14} {'new median':>14} "
          f"{'change':>8} {'base IQR':>9}")
    for (wl, name), (base, new, unit) in sorted(table.items()):
        if not base or not new:
            continue
        bq1, bmed, bq3 = quartiles(base)
        _, nmed, _ = quartiles(new)
        change = (nmed / bmed - 1) * 100 if bmed else float("nan")
        iqr = (bq3 - bq1) / bmed * 100 if bmed else float("nan")
        print(f"{wl:12} {name + ' [' + unit + ']':28} {bmed:14.6g} {nmed:14.6g} "
              f"{change:+7.1f}% {iqr:8.1f}%")
    return 0


def run_all(argv):
    """Every listed workload, untraced; fails if any run fails."""
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    status = 0
    for w in listed:
        print(f"== {w['name']}", flush=True)
        status = max(status, run(["--workload", w["name"], *argv, "--trace", "0"]))
    return status


def main():
    if sys.argv[1:2] == ["compare"]:
        return compare(sys.argv[2:])
    if sys.argv[1:2] == ["all"]:
        return run_all(sys.argv[2:])
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
