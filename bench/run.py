"""Audit benchmark for biasaudit.

    python3 bench/run.py --workload quickstart --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from the repository root; the package is imported from ``src/``. With
``--trace 0`` every audit is a fresh ``biasaudit audit`` process, timed from
spawn to exit, and the run reports the end-to-end metrics. With ``--trace 1``
the audit runs in this process, alternately untraced and with the public
functions wrapped in spans, and the run reports per-layer self times and
counts. Every run checks the outputs against independent oracles. The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Scratch files go to
``.bench_out/``; the spans of traced runs are kept there.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"
WORK = ROOT / ".bench_out"
DEADLINE_S = 170  # a run must end within 180 s
MIN_AUDITS = 2  # byte identity needs two outputs to compare
SETUP_PER_AUDIT = 2

END_TO_END_UNITS = {"audit_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    **{m: "s" for m in tracing.TIME_METRICS},
    **{m: "count" for m in tracing.COUNT_METRICS},
    "svm.converged_ratio": "1",
    "svm.kernel_mb": "MB",
    "report.json_bytes": "B",
    "plots.bytes": "B",
    "trace.overhead_s": "s",
}


class Run:
    """One benchmark run: its inputs, scratch directory and deadline."""

    def __init__(self, workload: workloads.Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.perf_counter()
        self.dir = WORK / f"{workload.name}-{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.data, self.inputs, sha256 = workloads.write_inputs(
            workload, seed % 2**64, self.dir / "inputs"
        )
        print(f"workload {workload.name} seed {seed}: " + ", ".join(
            f"{name} sha256 {digest}" for name, digest in sha256.items()
        ))

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def argv(self, out: Path) -> list[str]:
        """The audit command line, with only the documented flags."""
        args = ["audit", "--data", str(self.inputs["responses.csv"]), "--out", str(out)]
        if "codes.csv" in self.inputs:
            args += ["--codes", str(self.inputs["codes.csv"])]
        return args + ["--dip-replicas", str(self.workload.dip_replicas)]

    def content_problems(self, out: Path) -> list[str]:
        try:
            report = json.loads((out / "report.json").read_bytes())
            return checks.check_report(report, self.data, self.workload.bimodal_groups)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"report.json does not have the expected content: {exc!r}"]


def _digests(out: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def _failures(codes: list[int], digests: list[dict], shared: list[str]) -> tuple[list[str], int]:
    """All problems, and how many audits failed: those that exited non-zero
    or wrote other bytes than the first, or every one when a problem is
    shared by all (a content check of the report they agree on)."""
    problems = checks.check_exit_codes(codes) + checks.check_identical(digests) + shared
    if shared:
        return problems, len(codes)
    return problems, sum(c != 0 or d != digests[0] for c, d in zip(codes, digests))


def _spawn(argv: list[str], log: Path, timeout: float) -> tuple[int, float, float]:
    """Run one ``biasaudit`` process to its end: (exit code, wall s, peak RSS MB).

    The RSS is this child's own peak, from wait4 in launch.py;
    RUSAGE_CHILDREN would be a running maximum over every child and hide an
    improvement.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-I", "-S", str(LAUNCHER), sys.executable, "-m", "biasaudit.cli", *argv]
    with log.open("ab") as fh:
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=fh, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=max(timeout, 1.0))
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)  # the launcher and the audit
            proc.wait()
            raise
    if proc.returncode != 0:
        raise SystemExit(f"launch.py exited {proc.returncode}; see {log}")
    res = json.loads(out)
    return res["code"], res["wall_s"], res["maxrss_kb"] * 1024 / tracing.MB


def measure_end_to_end(run: Run, seconds: int) -> tuple[int, list[str], dict, int]:
    """Fresh-process audits for ``seconds`` (at least MIN_AUDITS of them),
    each followed by SETUP_PER_AUDIT ``--version`` processes, so that both
    averages sample the whole run."""
    log = run.dir / "children.log"
    _spawn(["--version"], log, run.remaining())  # fills the bytecode cache
    codes, walls, rss, digests, setup = [], [], [], [], []
    measure_start = time.perf_counter()
    while len(walls) < MIN_AUDITS or time.perf_counter() - measure_start < seconds:
        out = run.dir / f"out-{len(walls)}"
        code, wall, peak = _spawn(run.argv(out), log, run.remaining())
        codes.append(code)
        walls.append(wall)
        rss.append(peak)
        digests.append(_digests(out))
        if len(walls) > 1:
            shutil.rmtree(out)
        for _ in range(SETUP_PER_AUDIT):
            code, wall, _ = _spawn(["--version"], log, run.remaining())
            if code != 0:
                raise SystemExit(f"biasaudit --version exited {code}; see {log}")
            setup.append(wall)

    content = run.content_problems(run.dir / "out-0") if codes[0] == 0 else []
    problems, failed = _failures(codes, digests, content)
    metrics = {
        # the mean, not the median: the host's slow phases make the audit
        # times of a run bimodal, and a median then jumps between the modes
        "audit_s": statistics.fmean(walls),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup),
    }
    print(
        f"audit_s {metrics['audit_s']:.4f} s (mean of {len(walls)}: "
        f"{', '.join(f'{w:.3f}' for w in walls)}), "
        f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB (median of {len(rss)}), "
        f"setup_s {metrics['setup_s']:.4f} s (median of {len(setup)}), "
        f"failed_ratio {failed / len(walls):g} 1 ({failed}/{len(walls)})"
    )
    return len(walls), problems, metrics, failed


def _import_package():
    sys.path.insert(0, str(SRC))
    import biasaudit.cli

    if not Path(biasaudit.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"biasaudit imported from {biasaudit.cli.__file__}, not {SRC}")
    return biasaudit.cli


def measure_layers(run: Run, seconds: int) -> tuple[int, list[str], dict, int]:
    """Alternate untraced and traced in-process audits for ``seconds``."""
    cli = _import_package()
    plain, traced, digests, codes, layer_runs, spans = [], [], [], [], [], []
    problems = []
    # an untimed first audit pays the one-off costs, so that neither side
    # of the traced/untraced comparison carries them
    warm_up = run.dir / "out-warm-up"
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(run.argv(warm_up)))
    digests.append(_digests(warm_up))
    measure_start = time.perf_counter()
    while not traced or time.perf_counter() - measure_start < seconds:
        for tracer in (None, tracing.Tracer(run.workload.name)):
            out = run.dir / f"out-{len(codes)}"
            missing = tracer.install() if tracer else []
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    start = time.perf_counter()
                    codes.append(cli.main(run.argv(out)))
                    wall = time.perf_counter() - start
            finally:
                if tracer:
                    tracer.uninstall()
            digests.append(_digests(out))
            shutil.rmtree(out)
            if tracer is None:
                plain.append(wall)
                continue
            traced.append(wall)
            layer_runs.append(tracer.layer_metrics(missing))
            spans.extend(tracer.dump())
            root = [s for s in tracer.spans if s.parent is None]
            accounted = sum(tracing.self_times(tracer.spans))
            if len(root) != 1 or root[0].name != "main" or abs(accounted - (root[0].end - root[0].start)) > 1e-6:
                problems.append("layer self times do not account for the cli.main span")

    if missing:
        print(f"missing: {', '.join(missing)} (metrics from these names are left out)")
    (WORK / f"spans-{run.workload.name}-{run.seed}.json").write_text(json.dumps(spans))
    if codes[0] == 0:
        problems += run.content_problems(warm_up)
    problems, failed = _failures(codes, digests, problems)
    metrics = {m: statistics.median(r[m] for r in layer_runs) for m in layer_runs[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    print(" ".join(f"{m} {v:.6g}" for m, v in metrics.items()))
    return len(codes), problems, metrics, failed


def run_workload(name: str, seed: int, seconds: int, traced: bool) -> dict:
    run = Run(workloads.WORKLOADS[name], seed)
    try:
        measure = measure_layers if traced else measure_end_to_end
        attempted, problems, metrics, failed = measure(run, seconds)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    units = PER_LAYER_UNITS if traced else END_TO_END_UNITS
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "biasaudit" / "cli.py").is_file():
        print(f"no biasaudit sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
