#!/usr/bin/env python3
"""Benchmark regression gate: the working tree against a base revision.

Adds the base with `git worktree add` under a temp dir (always removed),
builds each gated package's test binary per side, and runs every row once
per side per round, back to back, flipping the order each round. A row
fails when the median of its per-round head/base ns/op ratios exceeds
1 + THRESHOLD; the gate also fails on a base row missing at the head, an
allocation at the head on the zero-alloc hot paths, no parsed line, or a
failing binary. Outputs go to bench-gate-{base,head}.txt as runs finish.

Usage: bench_gate.py --base REV
"""

import argparse
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THRESHOLD = 0.15
# One run's ns/op spreads 8-14% on a 2-vCPU host; the median of nine ratios
# passes an unchanged tree in ~99 of 100 gate runs (DESIGN §38).
ROUNDS = 9
ZERO_ALLOC = {"BenchmarkKernelPostStep", "BenchmarkMeshSendEvent"}

# (package, -bench regex, -benchtime or None for the default). A fixed 5x
# makes both sides average sim-cycles over the same five seeds.
ROWS = [
    ("./internal/sim", "BenchmarkKernelPostStep$", None),
    ("./internal/mesh", "BenchmarkMeshSendEvent$", None),
    (".", "BenchmarkSimulatorThroughput$", "5x"),
    (".", "BenchmarkAbortPath$", "5x"),
    (".", "BenchmarkProtocols$", None),
    (".", "BenchmarkShardedKernel$", "5x"),
    ("./internal/core", "BenchmarkCheckpointCodec/(append|decode)$", None),
]

# `BenchmarkName-8   123  456 ns/op  ... 0 allocs/op` (GOMAXPROCS suffix and
# allocs column optional; sub-benchmark names keep their slash, e.g.
# `BenchmarkProtocols/tl2-8`).
LINE = re.compile(
    r"^(Benchmark[\w/]+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:.*?\s(\d+) allocs/op)?"
)


def parse(text):
    """Minimum ns/op and maximum allocs/op per benchmark."""
    ns, allocs = {}, {}
    for line in text.splitlines():
        m = LINE.match(line)
        if not m:
            continue
        bench, v = m.group(1), float(m.group(2))
        ns[bench] = min(ns.get(bench, v), v)
        if m.group(3) is not None:
            allocs[bench] = max(allocs.get(bench, 0), int(m.group(3)))
    return ns, allocs


def compare(base_rounds, head_rounds):
    """Report lines and whether the gate fails, given each side's output per
    round (round i of the two sides ran back to back)."""
    base, head = [parse(t)[0] for t in base_rounds], [parse(t)[0] for t in head_rounds]
    allocs = parse("\n".join(head_rounds))[1]
    in_base, in_head = set().union(*base), set().union(*head)
    if not in_base or not in_head:
        return [f"bench_gate: no benchmark lines parsed at the {'head' if in_base else 'base'}"], True
    report, failed = [], False
    for bench in sorted(in_base | in_head):
        ratios = [h[bench] / b[bench] for b, h in zip(base, head) if bench in b and bench in h]
        if bench not in in_head:
            report.append(f"{bench}: at the base but missing at the head — FAIL")
            failed = True
        elif not ratios:
            report.append(f"{bench}: head only, informational")
        else:
            ratio = statistics.median(ratios)
            bad = ratio > 1 + THRESHOLD
            report.append(
                f"{bench}: median ratio {ratio:.3f} (limit {1 + THRESHOLD:.2f}; rounds "
                f"{' '.join(f'{r:.3f}' for r in ratios)}) — {'REGRESSION' if bad else 'ok'}"
            )
            failed |= bad
    for bench in sorted(ZERO_ALLOC):
        a = allocs.get(bench)
        if a != 0:
            got = "no allocs/op at the head" if a is None else f"{a} allocs/op"
            report.append(f"{bench}: {got} — zero-alloc hot path FAIL")
            failed = True
    return report, failed


def run(cmd, cwd, log=None):
    p = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    print(p.stdout, end="", flush=True)
    if log:
        with open(log, "a") as f:
            f.write(p.stdout)
    if p.returncode != 0:
        sys.exit(f"bench_gate: {' '.join(cmd)} failed in {cwd} (exit {p.returncode})")
    return p.stdout


def measure(tmp, roots):
    """Build and alternate both sides over ROWS; return each side's output
    per round."""
    binary = lambda side, pkg: os.path.join(tmp, f"{side}-{pkg.strip('./').replace('/', '-') or 'root'}.test")
    for side, root in roots.items():
        open(f"bench-gate-{side}.txt", "w").close()
        for pkg in {row[0] for row in ROWS}:
            run(["go", "test", "-c", "-o", binary(side, pkg), pkg], root)
    out = {side: [""] * ROUNDS for side in roots}
    for rnd in range(ROUNDS):
        for pkg, bench, benchtime in ROWS:
            cmd = ["-test.run=^$", "-test.bench=" + bench, "-test.benchmem", "-test.timeout=10m"]
            cmd += ["-test.benchtime=" + benchtime] if benchtime else []
            for side in sorted(roots, reverse=rnd % 2 == 1):
                print(f"== round {rnd + 1} {side}: {bench}", flush=True)
                log, cwd = f"bench-gate-{side}.txt", os.path.join(roots[side], pkg)
                out[side][rnd] += run([binary(side, pkg)] + cmd, cwd, log)
    return out


def main():
    ap = argparse.ArgumentParser(description="Gate the working tree's benchmarks against REV.")
    ap.add_argument("--base", required=True, help="base revision, e.g. HEAD~1")
    base = ap.parse_args().base
    tmp = tempfile.mkdtemp(prefix="bench-gate-")
    tree = os.path.join(tmp, "tree")
    try:
        run(["git", "worktree", "add", "--detach", tree, base], REPO)
        out = measure(tmp, {"base": tree, "head": REPO})
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "-C", REPO, "worktree", "prune"])
    report, failed = compare(out["base"], out["head"])
    print("\n".join(report))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
