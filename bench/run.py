"""Benchmark for paulicrit: one workload through the CLI, outputs checked.

Run from the repository root:

    python3 bench/run.py --workload oracle --seed 0 --seconds 30 --trace 0

Workloads are ``oracle``, ``cuts-scale`` and ``symmetric`` (see
workloads.py).  The program is imported from ``src/`` and each job calls
``paulicrit.cli.main(argv)`` in this process, one at a time.  Passes over
the job list repeat until ``--seconds`` would be exceeded, at least once.

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s`` is the
median over passes of the job time scaled to nominal machine speed (see
calibrate.py; the unscaled median is in the run details), ``setup_s`` the
median of SETUP_REPEATS fresh interpreter starts, each divided by a
baseline start that only imports numpy and multiplied by that start's
nominal time.  With ``--trace 1`` untraced and traced passes alternate and
the metrics are the per-layer ones from the traced passes, unscaled.
Stdout carries a line of run details (provenance, per-job times, failures,
counts and what each per-layer metric should move) and, as its last line,
the result object.  Spans of a traced run and the count
record go to ``bench/.state``.  Exit code 2 means the run could not be
made, for example because ``src/paulicrit`` is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# One BLAS thread: a second one made oracle times follow the load on the
# other core without making them shorter.  Set before numpy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import calibrate  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = HERE / ".state"
SETUP_REPEATS = 11
SETUP_SNIPPET = (
    "import sys\n"
    "import paulicrit.cli\n"
    "from paulicrit.pauli import OperatorSet\n"
    "for path in sys.argv[1:]:\n"
    "    OperatorSet.from_file(path)\n"
)
BASELINE_SNIPPET = "import numpy\n"


def import_program() -> dict:
    sys.path.insert(0, str(SRC))
    from paulicrit import bounds, cli, cuts, oracle, pauli, states

    return {"bounds": bounds, "cli": cli, "cuts": cuts, "oracle": oracle,
            "pauli": pauli, "states": states}


def invoke(cli_main, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def run_pass(workload: workloads.Workload, modules: dict, traced: bool) -> dict:
    """One pass over the job list.  Job times exclude the output checks and,
    in untraced passes, the calibration samples taken while jobs run."""
    tracer = spans.Tracer(modules)
    sampler = calibrate.Sampler(workload.name)
    results = []
    with tracer if traced else sampler:
        for job in workload.jobs:
            start, sampled = time.perf_counter(), sampler.spent_s
            try:
                if traced:
                    code, out, err = tracer.span(
                        f"cli.{job.command}", invoke, modules["cli"].main, job.argv
                    )
                else:
                    code, out, err = invoke(modules["cli"].main, job.argv)
            except Exception:  # a crash is a failed job, not a failed run
                code, out, err = -1, "", traceback.format_exc()
            seconds = time.perf_counter() - start - (sampler.spent_s - sampled)
            results.append((job, code, out, err, seconds))
    checked = []
    saturated = [0, 0]
    for job, code, out, err, seconds in results:
        try:
            problems = job.check(code, out)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            problems = [f"malformed output: {exc!r}"]
        if code == -1:
            problems.append(err.strip().splitlines()[-1])
        sat, rows = workloads.saturation(job, code, out)
        saturated[0] += sat
        saturated[1] += rows
        checked.append({"job": job, "seconds": seconds, "problems": problems})
    wall = sum(c["seconds"] for c in checked)
    rec = {"traced": traced, "wall_s": wall, "jobs": checked, "saturated": tuple(saturated)}
    if traced:
        rec["spans"] = tracer.spans
        rec["layers"] = metrics.layer_values(spans.summarize(tracer.spans), rec["saturated"])
    else:
        rec["scaled_s"] = wall * sampler.scale()
        rec["kernel_samples"] = len(sampler.samples)
    return rec


def measure_setup(files: list[str]) -> tuple[list[float], list[float]]:
    """Fresh interpreter, ``import paulicrit.cli`` and parsing the inputs.
    Each sample follows a baseline start that only imports numpy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples, baseline = [], []
    for _ in range(SETUP_REPEATS):
        for snippet, out, args in ((BASELINE_SNIPPET, baseline, []),
                                   (SETUP_SNIPPET, samples, files)):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", snippet, *args],
                           env=env, check=True, cwd=ROOT)
            out.append(time.perf_counter() - start)
    return samples, baseline


def measure_parse(modules: dict, files: list[str]) -> float:
    """In-process parse time of the inputs, median of SETUP_REPEATS."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        for path in files:
            modules["pauli"].OperatorSet.from_file(path)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_passes(workload, modules, seconds: float, trace: bool) -> list[dict]:
    """Alternate untraced and traced passes when tracing; stop before a
    pass of median length would overrun ``seconds``."""
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(workload, modules, traced))
        if trace and len(passes) < 2:
            continue
        typical = statistics.median(p["wall_s"] for p in passes)
        if time.perf_counter() - start + typical > seconds:
            return passes


def source_digest() -> str:
    """SHA-256 of the program's and the benchmark's Python sources, so a
    count record is only compared with runs of the same jobs and sizes."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(seed: int) -> dict:
    import numpy as np

    cpu = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((l.split(":", 1)[1].strip() for l in handle
                        if l.startswith("model name")), None)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None  # the benchmark may run from an exported tree
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, check=True).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": commit,
        "source_sha256": source_digest(),
        "seed": seed,
    }


def check_counts(label: str, traced: list[dict], digest: str) -> list[str]:
    """Counts must repeat across the traced passes of this run and across
    runs of the same program and benchmark sources, recorded in
    bench/.state."""
    drift = []
    counts = [{k: p["layers"][k] for k in metrics.DETERMINISTIC} for p in traced]
    for other in counts[1:]:
        drift += [f"{k}: {counts[0][k]} then {other[k]} within the run"
                  for k in counts[0] if other[k] != counts[0][k]]
    record = STATE / f"counts-{label}.json"
    if record.exists():
        old = json.loads(record.read_text(encoding="utf-8"))
        if old["source_sha256"] == digest:
            drift += [f"{k}: recorded {old['counts'].get(k)}, now {counts[0][k]}"
                      for k in counts[0] if old["counts"].get(k) != counts[0][k]]
    record.write_text(json.dumps({"source_sha256": digest, "counts": counts[0]}, indent=1),
                      encoding="utf-8")
    return drift


def summarize_run(workload, passes, setup, parse_s, seed, trace, label) -> tuple[dict, dict]:
    """The result object and the run details."""
    jobs = [c for p in passes for c in p["jobs"]]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    failed = [c for c in jobs if c["problems"]]
    unexpected = [
        c for c in failed
        if not (c["job"].known_defect and all(x.startswith("false ") for x in c["problems"]))
    ]
    info = {
        "workload": workload.name,
        "provenance": provenance(seed),
        "passes": [{"traced": p["traced"], "wall_s": p["wall_s"]} for p in passes],
        "job_median_s": {
            job.name: statistics.median(
                c["seconds"] for p in untraced for c in p["jobs"] if c["job"] is job)
            for job in workload.jobs
        },
        "setup_samples_s": setup[0],
        "setup_baseline_s": setup[1],
        "raw_wall_s": statistics.median(p["wall_s"] for p in untraced),
        "scaled_passes_s": [p["scaled_s"] for p in untraced],
        "kernel_samples": [p["kernel_samples"] for p in untraced],
        "failures": {c["job"].name: c["problems"] for c in failed},
        "known_defects": {c["job"].name: c["job"].known_defect for c in failed
                          if c not in unexpected},
    }
    wall = statistics.median(p["scaled_s"] for p in untraced)
    if trace:
        # counts repeat exactly (checked below); times are medians
        values = {
            k: traced[0]["layers"][k] if k in metrics.DETERMINISTIC
            else statistics.median(p["layers"][k] for p in traced)
            for k in traced[0]["layers"]
        }
        values["pauli.from_file_s"] = parse_s
        values["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                      - info["raw_wall_s"])
        info["drift"] = check_counts(label, traced, info["provenance"]["source_sha256"])
        info["counts"] = {k: values[k] for k in metrics.DETERMINISTIC}
        info["moves"] = metrics.MOVES
        units = metrics.PER_LAYER
    else:
        values = {
            "wall_s": wall,
            "setup_s": calibrate.NUMPY_START_S * statistics.median(
                s / b for s, b in zip(*setup)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = metrics.END_TO_END
    result = {
        "correct": not unexpected and not info.get("drift"),
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return result, info


def run(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> tuple[dict, dict]:
    modules = import_program()
    STATE.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=STATE, prefix="inputs-") as tmp:
        workload = workloads.build(name, seed, Path(tmp), modules, size)
        setup = measure_setup(workload.setup_files)
        parse_s = measure_parse(modules, workload.setup_files)
        passes = run_passes(workload, modules, seconds, trace)
    label = f"{name}-{size}-seed{seed}"
    result, info = summarize_run(workload, passes, setup, parse_s, seed, trace, label)
    if trace:
        trace_file = STATE / f"trace-{label}.json"
        trace_file.write_text(json.dumps(
            [spans.to_json(p["spans"]) for p in passes if p["traced"]]), encoding="utf-8")
    return result, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "paulicrit" / "cli.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    try:
        result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except workloads.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for job, problems in info["failures"].items():
        print(f"failed: {job}: {'; '.join(problems)}", file=sys.stderr)
    for line in info.get("drift", []):
        print(f"count drift: {line}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
