"""Benchmark of `asrinc eval`, end to end or traced layer by layer.

    python3 perfbench/run.py --workload quickstart --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout. The inputs are generated from
--seed under .perfbench-work/, each eval runs the CLI in a fresh child
interpreter, one at a time, and every run directory is checked before it
is deleted. The last line of standard output is one JSON object: whether
the outputs were correct, the operations attempted and failed, and the
metrics by name and unit (end-to-end with --trace 0, per layer with
--trace 1). See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import checks

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
SETUP_SAMPLES = 5       # cold starts timed per run; setup_s is their median
IMPORTTIME_SAMPLES = 3
CHILD_TIMEOUT_S = 170


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH", "")) if p)
    # one thread per process: numpy and scipy must not fan out
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Bench:
    def __init__(self, work: Path, src: Path, inputs) -> None:
        self.work = work
        self.env = child_env(src)
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._n = 0

    def child(self, asrinc_args: list[str], trace: Path | None = None) -> dict:
        """Spawn child.py and return its result, plus setup_s (the cold
        start) and host (how much slower than the reference the host ran)."""
        self._n += 1
        result_path = self.work / f"child{self._n}.json"
        cmd = [sys.executable, str(CHILD), str(result_path)]
        if trace is not None:
            cmd += ["--trace", str(trace)]
        if asrinc_args:
            cmd += ["--", *asrinc_args]
        spawned = time.monotonic()
        with open(self.work / f"child{self._n}.log", "w") as log:
            host = calibrate.run_sampled(cmd, timeout=CHILD_TIMEOUT_S, stdout=log,
                                         stderr=subprocess.STDOUT, env=self.env)
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["setup_s"] = result["imported_at"] - spawned
        result["host"] = host
        return result

    def eval_round(self, trace: Path | None = None) -> dict:
        """One checked `asrinc eval` into a fresh run directory."""
        run_dir = self.work / f"run{self._n + 1}"
        result = self.child(["eval", *self.inputs.eval_args, "--out", str(run_dir)], trace)
        top_beams = None
        if trace is not None:
            top_beams = json.loads(trace.read_text(encoding="utf-8"))["top_beams"]
        attempted, failed, problems = checks.check_run(run_dir, self.inputs, top_beams)
        if result["rc"] != 0:
            failed, problems = attempted, [f"eval exited with {result['rc']}"]
        self.attempted += attempted
        self.failed += failed
        self.problems += problems
        # run directories go with the work directory after the last round:
        # on this host, deleting many files slows the file creation that
        # follows for several seconds
        result["run_dir"] = run_dir
        return result

    def report(self, metrics: dict) -> dict:
        for p in self.problems[:20]:
            print(f"check failed: {p}", file=sys.stderr)
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def _walk(root: Path) -> tuple[int, int]:
    files = size = 0
    for dirpath, _dirs, names in os.walk(root):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(dirpath, name))
    return files, size


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(bench: Bench, seconds: float) -> dict:
    """Whole eval rounds for about `seconds`, then the cold-start samples.

    Eval times are scaled by the host speed sampled while their child ran,
    cold starts by import probes taken just before and after them
    (calibrate.py); each metric is the median over rounds or samples.
    """
    begin = time.monotonic()
    rounds = []
    while True:
        rounds.append(bench.eval_round())
        elapsed = time.monotonic() - begin
        if elapsed + elapsed / len(rounds) > seconds:
            break
    starts, probes = [], [calibrate.import_probe(bench.env)]
    for _ in range(SETUP_SAMPLES):
        starts.append(bench.child([]))
        probes.append(calibrate.import_probe(bench.env))
    setups = [s["setup_s"] / math.sqrt(before * after)
              for s, before, after in zip(starts, probes, probes[1:])]

    frames = bench.inputs.frames
    print("as measured: frames_per_s "
          f"{statistics.median(frames / r['eval_s'] for r in rounds):.4f} setup_s "
          f"{statistics.median(s['setup_s'] for s in starts):.4f} host "
          f"{statistics.median(r['host'] for r in rounds):.4f} "
          f"{statistics.median(probes):.4f}",
          file=sys.stderr)
    return bench.report({
        "frames_per_s": _metric(
            statistics.median(frames / r["eval_s"] * r["host"] for r in rounds), "1/s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(statistics.median(r["maxrss_kb"] for r in rounds) / 1024,
                               "MB"),
    })


def _import_times(env: dict) -> dict[str, float]:
    """Cumulative import seconds from -X importtime: "cli" for the whole
    `import asr_inconsistency.cli`, and one entry per package module."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import asr_inconsistency.cli"],
                          capture_output=True, text=True, env=env,
                          timeout=CHILD_TIMEOUT_S, check=True)
    times = {"cli": 0.0}
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name, seconds = fields[2].strip(), int(fields[1]) / 1e6
        if name.startswith("asr_inconsistency"):
            times[name] = seconds
            # the statement imports the package, then the cli submodule;
            # both appear unindented, with everything else nested below
            if fields[2].startswith(" ") and not fields[2].startswith("  "):
                times["cli"] += seconds
    return times


def traced_run(bench: Bench) -> dict:
    """One untraced and one traced eval; per-layer numbers from the trace."""
    import numpy as np

    plain = bench.eval_round()
    trace_path = bench.work / "trace.json"
    traced = bench.eval_round(trace=trace_path)
    files_written, bytes_written = _walk(traced["run_dir"])
    spans = json.loads(trace_path.read_text(encoding="utf-8"))
    keep = Path.cwd() / ".perfbench-work" / "traces"
    keep.mkdir(parents=True, exist_ok=True)
    shutil.copy(trace_path, keep / f"{bench.work.name}.json")

    names = spans["names"]
    kind = np.asarray(spans["kind"], dtype=np.int64)
    dur = np.asarray(spans["end"]) - np.asarray(spans["start"])
    parent = np.asarray(spans["parent"], dtype=np.int64)
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=dur[has_parent],
                           minlength=len(dur))
    self_time = dur - children

    def total(name: str, values=self_time) -> float:
        if name not in names:
            return 0.0
        return float(values[kind == names.index(name)].sum())

    def calls(name: str) -> int:
        return int(np.sum(kind == names.index(name))) if name in names else 0

    counts = spans["counts"]
    scores_ms = 1000 * dur[kind == names.index("harness.score")]
    beam_frames = counts.get("decoder.beam_frames", 0)
    samples = [_import_times(bench.env) for _ in range(IMPORTTIME_SAMPLES)]

    def import_s(name: str) -> float:
        return statistics.median(sample.get(name, 0.0) for sample in samples)

    s, ms, n, mb = "s", "ms", "count", "MB"
    return bench.report({
        "cli.import_s": _metric(import_s("cli"), s),
        "stats.import_s": _metric(import_s("asr_inconsistency.stats"), s),
        "refgen.import_s": _metric(import_s("asr_inconsistency.refgen"), s),
        "decoder.beam_s": _metric(total("decoder.beam"), s),
        "decoder.beam_ms_per_frame": _metric(
            1000 * total("decoder.beam", dur) / beam_frames if beam_frames else 0.0, ms),
        "decoder.beam_calls": _metric(calls("decoder.beam"), n),
        "ngram.advance_calls": _metric(calls("ngram.advance"), n),
        "ngram.advance_s": _metric(total("ngram.advance"), s),
        "ngram.load_s": _metric(total("ngram.load"), s),
        "decoder.greedy_s": _metric(total("decoder.greedy") + total("decoder.collapse"), s),
        "posteriors.load_calls": _metric(calls("posteriors.load"), n),
        "posteriors.load_s": _metric(total("posteriors.load"), s),
        "posteriors.mb_read": _metric(counts.get("posteriors.bytes", 0) / 1e6, mb),
        "textnorm.normalize_calls": _metric(calls("textnorm.normalize"), n),
        "textnorm.normalize_s": _metric(total("textnorm.normalize"), s),
        "transcript.created": _metric(counts.get("transcript.created", 0), n),
        "metrics.align_calls": _metric(calls("metrics.align"), n),
        "metrics.align_s": _metric(total("metrics.align"), s),
        "baselines.wada_s": _metric(total("baselines.wada"), s),
        "audio.read_s": _metric(total("audio.read"), s),
        "refgen.requests": _metric(counts.get("refgen.requests", 0), n),
        "refgen.correct_s": _metric(total("refgen.correct"), s),
        "manifest.load_s": _metric(total("manifest.load"), s),
        "harness.score_s": _metric(total("harness.score", dur), s),
        "harness.score_ms_p50": _metric(float(np.percentile(scores_ms, 50)), ms),
        "harness.score_ms_p90": _metric(float(np.percentile(scores_ms, 90)), ms),
        "harness.aggregate_s": _metric(total("harness.aggregate"), s),
        "harness.persist_s": _metric(total("harness.run_pipeline"), s),
        "harness.files_written": _metric(files_written, n),
        "harness.mb_written": _metric(bytes_written / 1e6, mb),
        # both evals scaled to the reference host speed, as in timed_run
        "trace.overhead_s": _metric(
            traced["eval_s"] / traced["host"] - plain["eval_s"] / plain["host"], s),
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["quickstart", "longform"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    checkout = Path.cwd()
    src = checkout / "src"
    if not (src / "asr_inconsistency" / "cli.py").is_file():
        print(f"error: no asr_inconsistency sources under {src}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    work = checkout / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = workloads.WORKLOADS[args.workload](work / "inputs", args.seed)
        bench = Bench(work, src, inputs)
        result = traced_run(bench) if args.trace else timed_run(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
