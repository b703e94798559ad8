"""privads benchmark: whole protocol scenarios, end to end and per layer.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

Each scenario runs in a fresh interpreter (perfbench/child.py), one after
another: a closed loop with one client, single-threaded, no worker pool.
With --trace 0 the children wrap only the actor entry points and the
end-to-end metrics are printed; with --trace 1 an untraced child is
followed by a traced one, and the per-layer metrics plus the tracing
overhead are printed.  See run_children for how many children a run gets.

The metric names and units come from BENCHMARK.json.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The exit code is 0 only when every child passed the correctness gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "privads")
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
DEADLINE_S = 170  # every run must end within 180 s
SETUP_SAMPLES = 5
EXACT = (".calls", ".builds")  # per-layer counts that must repeat exactly for one seed

sys.path.insert(0, HERE)

import metrics as derive  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class BenchError(Exception):
    """The benchmark could not run (missing program, crashed child)."""


def environment() -> dict:
    try:
        crypto = metadata.version("cryptography")
    except metadata.PackageNotFoundError:
        crypto = "not installed"
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cryptography": crypto}


def code_digest() -> str:
    """Digest of the program's sources and the benchmark's own code: a
    change to either (a trace point added, say) starts a new record of
    exact counts."""
    digest = hashlib.sha256()
    for directory in (SRC, HERE):
        for name in sorted(os.listdir(directory)):
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def run_child(workload: str, seed: int, mode: str, deadline: float, spans: str | None = None) -> dict:
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed), "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another child")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # subprocess.run kills and reaps the child
        raise BenchError(f"{mode} child exceeded {timeout:.0f}s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_children(workload: str, seed: int, seconds: int, traced: bool) -> tuple[list, list, list]:
    """(plain results, traced results, setup-only results).

    One full child first (with --trace 1, an untraced and a traced one, so
    the traced run has an untraced twin for trace.overhead_s).  More full
    children follow while the next is expected to end within `seconds`.
    Untraced, one set-up-only child comes before the full children and
    more follow them until SETUP_SAMPLES set-up times exist or the time is
    used up, so the set-up samples span the run rather than one stretch of
    machine noise."""
    started = time.monotonic()
    deadline = started + DEADLINE_S

    def fits(estimate: float) -> bool:
        return time.monotonic() - started + estimate <= seconds

    plain, traced_results, setups, longest = [], [], [], 0.0
    if not traced:
        setups.append(run_child(workload, seed, "setup", deadline))
    while not plain or (traced and not traced_results) or fits(longest):
        begin = time.monotonic()
        if traced and len(traced_results) < len(plain):
            spans = os.path.join(OUT, f"spans-{workload}-{seed}-{len(traced_results)}.json")
            result = run_child(workload, seed, "trace", deadline, spans)
            result["spans_file"] = spans
            traced_results.append(result)
        else:
            plain.append(run_child(workload, seed, "plain", deadline))
        longest = max(longest, time.monotonic() - begin)
    if not traced:
        estimate = max(r["setup_s"] for r in plain + setups) + 0.5
        while len(plain) + len(setups) < SETUP_SAMPLES and fits(estimate):
            begin = time.monotonic()
            setups.append(run_child(workload, seed, "setup", deadline))
            estimate = max(estimate, time.monotonic() - begin)
    return plain, traced_results, setups


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(plain: list, setups: list, attempted: int, failed: int) -> tuple[dict, dict]:
    """(metrics, detail): detail holds sample counts and the figures
    printed but not gated (see README.md, "Noise")."""
    claims = [s for r in plain for s in r["claim_s"]]
    requests = [s for r in plain for s in r["request_s"]]
    audits = [s for r in plain for s in r["audit_s"]]
    setup = [r["setup_s"] for r in plain + setups]
    values = {
        "setup_s": _median(setup),
        "run_s": _median([r["run_s"] for r in plain]),
        "claims_per_s": _median([r["claims_paid"] / r["run_s"] for r in plain]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
        "success_ratio": 1 - failed / attempted,
    }
    samples = {"setup_s": len(setup), "run_s": len(plain), "claims_per_s": len(plain), "peak_rss_mb": len(plain),
               "claim_p50_s": len(claims), "request_p50_s": len(requests), "audit_p50_s": len(audits)}
    extra = {"claim_p50_s": (_median(claims), "s"), "request_p50_s": (_median(requests), "s"),
             "audit_p50_s": (_median(audits), "s"), "failed_ratio": (failed / attempted, "ratio")}
    # A p90 needs at least ten samples beyond it.
    if len(claims) >= 100:
        extra["claim_p90_s"] = (_percentile(claims, 0.9), "s")
        samples["claim_p90_s"] = len(claims)
    if len(requests) >= 100:
        extra["request_p90_s"] = (_percentile(requests, 0.9), "s")
        samples["request_p90_s"] = len(requests)
    return values, {"samples": samples, "extra": extra}


def per_layer(plain: list, traced: list) -> tuple[dict, list]:
    """(metrics, failures): medians over traced children, exact counts
    checked for equality between them."""
    derived, failures = [], []
    for result in traced:
        spans, counts = tracing.load_spans(result["spans_file"])
        failures += derive.coverage_failures(spans)
        derived.append(derive.layer_metrics(spans, counts, result))
    first = derived[0]
    for other in derived[1:]:
        for key, value in first.items():
            if key.endswith(EXACT) and other.get(key) != value:
                failures.append(f"{key} differs between traced runs: {value} != {other.get(key)}")
    values = {}
    for key in first:
        samples = [d[key] for d in derived if key in d]
        values[key] = samples[0] if key.endswith(EXACT) else _median(samples)
    values["trace.overhead_s"] = _median([r["run_s"] for r in traced]) - _median([r["run_s"] for r in plain])
    return values, failures


def check_calls_repeat(workload: str, seed: int, layer: dict) -> list:
    """Every exact count must repeat across runs of one seed on one tree of
    program and benchmark code; the first traced run in a checkout records
    them, later ones compare."""
    calls = {k: v for k, v in layer.items() if k.endswith(EXACT)}
    path = os.path.join(OUT, f"calls-{workload}-{seed}-{code_digest()}.json")
    if not os.path.exists(path):
        with open(path, "w") as fh:
            json.dump(calls, fh, sort_keys=True, indent=0)
        return []
    with open(path) as fh:
        recorded = json.load(fh)
    return [f"{k}: {recorded.get(k)} recorded, {v} now" for k, v in sorted(calls.items()) if recorded.get(k) != v] + [
        f"{k}: recorded but absent now" for k in sorted(set(recorded) - set(calls))
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="privads end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ALL))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        print(f"perfbench: no privads sources under {os.path.relpath(SRC, ROOT)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    # Compile once up front, so no child's setup_s pays for bytecode.
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC], cwd=ROOT, check=True)

    env = environment()
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    try:
        plain, traced, setups = run_children(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    failures = []
    attempted = 0
    for result in plain + traced:
        attempted += result["txs"]
        failures += [f"{result['mode']} child: {f}" for f in result["failures"]]
        print(f"# {result['mode']} child: run_s={result['run_s']:.3f} setup_s={result['setup_s']:.3f} "
              f"txs={result['txs']} report_sha256={result['report_sha256']} "
              f"state_hash={','.join(result['state_hashes'])}")
    for result in setups:
        print(f"# setup child: setup_s={result['setup_s']:.3f}")
    fingerprints = {(r["report_sha256"], tuple(r["state_hashes"]), r["txs"]) for r in plain + traced}
    if len(fingerprints) != 1:
        failures.append(f"report bytes or state hashes differ between runs of one seed: {sorted(fingerprints)}")

    if args.trace:
        values, layer_failures = per_layer(plain, traced)
        failures += layer_failures + check_calls_repeat(args.workload, args.seed, values)
    # A run that fails any check counts all its transactions as failed
    # (a failed receipt is itself a failed check).
    failed = attempted if failures else 0
    if args.trace:
        wanted = declared["per_layer"]
        # The receipt error histogram: codes are open-ended and none occurs
        # on a correct run, so they are printed, not declared.
        errors = {k: (v, "count") for k, v in values.items() if k.startswith("contracts.errors.")}
        errors.pop("contracts.errors.total")
        detail = {"per_layer_all": values, "samples": {}, "extra": errors}
    else:
        values, detail = end_to_end(plain, setups, attempted, failed)
        wanted = declared["end_to_end"]
    reported = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    for name, metric in reported.items():
        n = detail["samples"].get(name)
        print(f"{args.workload:8} {name:40} {metric['value']:.6g} {metric['unit']}" + (f"  (n={n})" if n else ""))
    for name, (value, unit) in detail["extra"].items():
        n = detail["samples"].get(name)
        print(f"{args.workload:8} {name:40} {value:.6g} {unit}" + (f"  (n={n})" if n else ""))
    for failure in failures:
        print(f"# FAILED: {failure}")

    correct = not failures
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"env": env, "args": vars(args), "correct": correct, "failures": failures, "metrics": reported,
                   "detail": detail, "children": plain + traced + setups}, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
