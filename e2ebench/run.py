"""Parma's end-to-end benchmark: four workloads, one command.

Run from the repository root::

    python3 e2ebench/run.py --workload serve-small --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``
with no instrumentation; the p90 and p95 latencies are printed beside
them with their sample counts but not gated, because on a shared
2-vCPU host their run-to-run spread exceeds any usable bound.
``--trace 1`` runs the same workload with every layer's entry points
wrapped from this directory's code (``src/`` is never modified) and
reports the per-layer metrics instead.  Declared per-layer times are
ones every workload measures; a layer that only some workloads run is
declared as its share of the work (0 elsewhere), and its absolute
times are printed below the declared metrics.  It also writes, under
``.bench_out/``, a Chrome trace of every span, a per-layer self-time
table, the latency attribution of served requests, and ``cProfile``
top functions under the ``core.solver`` and ``observe`` spans.  The
tracing overhead is the gap between ``traced.*`` and the untraced
metrics of the same workload and seed; it is printed whenever an
untraced result for them is already in ``.bench_out/``.

Every run checks every output (see ``inputs.py``) and records the host
facts with its result in ``.bench_out/<workload>-seed<seed>-trace<t>.json``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``failed / attempted`` is
the failed share (operations that failed, were rejected or failed a
check).  A metric of a layer the workload never runs reads 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: BENCHMARK.json at the repository root names every metric and its
#: unit; this script reports exactly those.
SPEC = ROOT / "BENCHMARK.json"


def _git_commit() -> str:
    """HEAD of a git checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def _source_digest() -> str:
    """sha256 over ``src/**/*.py``: names the code measured without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _host(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
        "seed": seed,
    }


def _print_table(title: str, rows: list[dict], columns: list[tuple[str, str]]) -> None:
    print(f"\n{title}")
    for row in rows:
        print("  " + "  ".join(fmt.format(row[key]) for key, fmt in columns))


def _report(workload: str, seed: int, trace: bool, outcome, names: dict, declared: set) -> dict:
    metrics = {}
    print(f"\n{workload} seed={seed} trace={int(trace)}")
    for name, unit in names.items():
        value, measured = outcome.metrics.get(name, (0.0, unit))
        if measured != unit:
            raise ValueError(f"{name} measured in {measured}, declared in {unit}")
        metrics[name] = {"value": value, "unit": unit}
        count = outcome.samples.get(name)
        extra = f"  (n={count})" if count is not None else ""
        missing = "  (layer not run by this workload)" if name not in outcome.metrics else ""
        print(f"  {name:<38} {value:>14.4f} {unit:<6}{extra}{missing}")
    for name in sorted(set(outcome.metrics) - set(declared)):
        value, unit = outcome.metrics[name]
        print(f"  {name:<38} {value:>14.4f} {unit:<6}  (n={outcome.samples.get(name)}, not in BENCHMARK.json)")
    print(
        f"  attempted={outcome.attempted} failed={outcome.failed} "
        f"wrong_outputs={outcome.wrong_outputs} oracle_checked={outcome.samples.get('oracle', 0)}"
    )
    if "attribution" in outcome.tables:
        _print_table(
            "mean request latency, attributed:",
            outcome.tables["attribution"],
            [("ms", "{:>9.3f} ms"), ("share", "{:>7.1%}"), ("part", "{}")],
        )
    for key in ("layers", "client_layers", "server_threads"):
        if key in outcome.tables:
            _print_table(
                f"per-layer self time ({key}):",
                outcome.tables[key],
                [("layer", "{:<20}"), ("calls", "{:>8}"), ("self_s", "{:>10.4f} s"), ("share", "{:>7.1%}")],
            )
    return metrics


def _overhead(out_dir: Path, workload: str, seed: int, outcome) -> None:
    """Print traced minus untraced end-to-end numbers when both exist."""
    path = out_dir / f"{workload}-seed{seed}-trace0.json"
    if not path.is_file():
        return
    plain = json.loads(path.read_text(encoding="utf-8"))["metrics"]
    for traced, base in (("traced.latency_p50_ms", "latency_p50_ms"), ("traced.ops_per_s", "ops_per_s")):
        a = outcome.metrics[traced][0]
        b = plain[base]["value"]
        print(f"  tracing overhead on {base}: {a - b:+.4f} ({(a - b) / b:+.1%})")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"e2ebench: no library sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    os.chdir(ROOT)
    # git (run by the library's manifest writer) must not search above
    # the checkout for a repository.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    from tracer import Tracer
    from workloads import WORKLOADS

    out_dir = Path(".bench_out")
    out_dir.mkdir(exist_ok=True)
    workdir = Path(".bench_run") / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = None
    if args.trace:
        (workdir / "children").mkdir()
        tracer = Tracer(child_dir=workdir / "children", profile_layers=("core.solver", "observe"))
    started = time.perf_counter()
    try:
        outcome = WORKLOADS[args.workload](args.seed, args.seconds, tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    metrics = _report(args.workload, args.seed, bool(args.trace), outcome,
                      per_layer if args.trace else end_to_end, set(end_to_end) | set(per_layer))
    if tracer is not None:
        _overhead(out_dir, args.workload, args.seed, outcome)
        tracer.write_chrome(out_dir / f"{stem}.chrome.json")
        for layer, text in outcome.profiles.items():
            (out_dir / f"{stem}.profile-{layer}.txt").write_text(text, encoding="utf-8")
            print(f"\ncProfile under {layer} spans (top by cumulative time):")
            print("\n".join(text.strip().splitlines()[:24]))
    host = _host(args.seed)
    print("\nhost: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "run_wall_s": time.perf_counter() - started,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "wrong_outputs": outcome.wrong_outputs,
        "samples": outcome.samples,
        "metrics": metrics,
        "all_metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()},
        "tables": outcome.tables,
        "latencies_ms": outcome.latencies_ms,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": outcome.wrong_outputs == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
