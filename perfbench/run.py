#!/usr/bin/env python3
"""morlkit benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; morlkit is imported from ./src. The
workload runs in a child process (perfbench/workload.py); this process
measures set-up time, checks the child's outputs (AOLS against an exact
reference, training and explain outputs for aborts and non-finite values)
and prints, as its last line, one JSON object with the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1). See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_PY = os.path.join(HERE, "workload.py")
DIGESTS = os.path.join(HERE, "digests.json")
DEADLINE_S = 170.0
SETUP_REPEATS = 7
# One caller, no threads: keep BLAS single-threaded too.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "request_s.p50": "s",
    "request_s.tail": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child(args: list[str], started: float) -> str:
    timeout = DEADLINE_S - (time.monotonic() - started)
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    env = dict(os.environ, **CHILD_ENV)
    try:
        proc = subprocess.run(
            [sys.executable, WORKLOAD_PY, *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"workload child exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"workload child failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("workload child printed nothing")
    return lines[-1]


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile: len(values) * (1 - pct/100) samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[rank - 1]


def check_train(units: list[dict], spec: dict) -> tuple[int, int]:
    """(attempted, failed) over train updates and explain calls."""
    attempted = failed = 0
    for u in units:
        attempted += u["updates"] + spec["explains"]
        failed += u["explain_failed"]
        if "error" in u or not u["finite"]:
            failed += u["updates"]
        else:
            # Each abort warning counts as one failed update; updates not
            # completed count as failed too.
            failed += min(u["updates"], u["aborts"] + u["updates"] - u["completed_updates"])
    return attempted, failed


def check_aols(units: list[dict], family) -> tuple[int, int]:
    """(attempted, failed) over solves: an error, a hit iteration cap, a
    non-finite vector, a mismatch with the exact reference or a result that
    differs from the same instance's first solve in this run fails."""
    from reference import exact_ccs, same_set

    references = {}
    first = {}
    attempted = failed = 0
    for u in units:
        for s in u["solves"]:
            attempted += 1
            i = s["instance"]
            if "error" in s or s["cap"]:
                failed += 1
                continue
            vectors = s["vectors"]
            if not all(math.isfinite(x) for v in vectors for x in v):
                failed += 1
                continue
            if i not in references:
                references[i] = exact_ccs(family[i])
                first[i] = vectors
            if vectors != first[i] or not same_set(vectors, references[i]):
                failed += 1
    return attempted, failed


def digest_of(spec: dict, units: list[dict]) -> str:
    if spec["kind"] == "train":
        return units[0].get("digest", "none")
    h = hashlib.sha256()
    for s in units[0]["solves"]:
        h.update(repr(s.get("vectors")).encode())
    return h.hexdigest()


def recorded_digest(workload: str, seed: int, digest: str) -> str:
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            known = json.load(fh).get(workload, {})
    except (OSError, ValueError):
        return "no digest file"
    if str(seed) not in known:
        return "seed not recorded"
    return "matches recorded" if known[str(seed)] == digest else "CHANGED from recorded"


def main() -> int:
    started = time.monotonic()
    sys.path.insert(0, HERE)
    from workload import WORKLOADS, aols_family, import_morlkit, tail_percentile

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    spec = WORKLOADS[args.workload]

    if not os.path.isfile(os.path.join(ROOT, "src", "morlkit", "__init__.py")):
        raise BenchError(f"no morlkit sources under {os.path.join(ROOT, 'src')}")
    try:
        import scipy.optimize  # noqa: F401  (the exact AOLS reference needs it)
    except ImportError as exc:
        raise BenchError("scipy is required to check outputs ('[test]' extra)") from exc

    setup = []
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            setup.append(float(child(["--setup", args.workload, "--seed", str(args.seed)], started)))

    record = json.loads(
        child(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            started,
        )
    )
    units = record["units"] + record["traced_units"]

    if spec["kind"] == "train":
        attempted, failed = check_train(units, spec)
        work_rates = [u["samples"] / u["train_s"] for u in record["units"]]
        requests = [t for u in record["units"] for t in u["explain_s"]]
    else:
        import_morlkit()
        attempted, failed = check_aols(units, aols_family(args.seed, spec["family"]))
        work_rates = [len(u["solves"]) / sum(s["s"] for s in u["solves"]) for u in record["units"]]
        requests = [s["s"] for u in record["units"] for s in u["solves"]]
    # Tracing must not change fixed-seed outputs: each traced unit repeats
    # its untraced twin's inputs.
    for plain, traced in zip(record["units"], record["traced_units"]):
        if digest_of(spec, [plain]) != digest_of(spec, [traced]):
            failed += 1

    env = record["environment"]
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    digest = digest_of(spec, record["units"])
    print(f"digest: {args.workload} seed={args.seed} sha256={digest} ({recorded_digest(args.workload, args.seed, digest)})")
    tail_pct = tail_percentile(spec)
    tail_beyond = len(requests) - -(-len(requests) * tail_pct // 100)
    print(
        f"samples: units={len(record['units'])} requests={len(requests)} "
        f"tail=p{tail_pct} ({tail_beyond} beyond) attempted={attempted} failed={failed}"
    )

    if args.trace:
        from tracing import per_layer_units

        layer_units = per_layer_units()
        metrics = {name: {"value": v, "unit": layer_units[name]} for name, v in record["layers"].items()}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "work_per_s": statistics.median(work_rates),
            "request_s.p50": statistics.median(requests),
            "request_s.tail": percentile(requests, tail_pct),
            "peak_rss_mb": record["peak_rss_kb"] / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
