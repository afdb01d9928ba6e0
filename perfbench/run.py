"""rgdkit benchmark: time to verdict on fixed verification workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a list of jobs; a job is one `rgdkit` command line, run
in-process through `rgdkit.cli.main(argv)` with stdout captured and
`--report` written to a work file, so it takes the path a user's command
takes.  Every job builds its blueprint and Coxeter system from scratch, so
no rgdkit cache carries over from one pass to the next.  Every job is
checked against its golden exit code and report digest (goldens.json).

With --trace 0 the run measures passes for --seconds seconds and reports
the end-to-end metrics, in reference seconds (see SpeedProbe).  With
--trace 1 it alternates untraced and traced passes and reports the per-layer
metrics (see tracing.py).  The last line of stdout is one JSON object:
correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = Path("perfbench/.work")          # relative to ROOT: report names embed it
GOLDENS = HERE / "goldens.json"
SETUP_REPEATS = 15
# One calibration loop takes CAL_REF_S at the reference speed; see SpeedProbe.
CAL_N = 30_000
CAL_REF_S = 0.002
CAL_PERIOD_S = 0.05
SETUP_CAL_RUNS = 5          # calibration runs on each side of a set-up
CAL_TABLE = {k: (k * 7919) % 1021 for k in range(64)}

# (label of the edge {1,2}, name); generator 3 is joined to 1 and 2 by inf
RANK3_INPUTS = ((3, "rank3_m3"), (6, "rank3_m6"))
MUTANTS = ("g2_weyl_mutated", "b2_cb1_mutated", "b2_cb2_mutated")
HEXAGON_COMMANDS = (
    ("chambers", ("chambers", "-s", "1", "-t", "2")),
    ("residue1", ("residue", "-s", "1")),
    ("residue2", ("residue", "-s", "2")),
    ("appendix", ("appendix", "-s", "1", "-t", "2")),
    ("group", ("group", "1.2.1.2.1.2")),
)
# the one witness acceptance criterion 5 asserts for the Weyl mutant
WEYL_WITNESS = re.compile(r"^VIOLATION axiom=Weyl .* gallery=2\.1\.2\.1\.2\.1 i=2 j=6 ", re.M)

END_TO_END = (("setup_s", "s"), ("verdict_s", "s"), ("peak_rss_mb", "MB"))
# per-layer metrics of the run as a whole: (name, unit, better)
RUN_METRICS = (("reports.checks", "count", "higher"), ("trace.overhead_ratio", "ratio", "lower"),
               ("trace.verdict_s", "s", "lower"), ("failed_ratio", "ratio", "lower"))


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple[str, ...]
    witness: re.Pattern | None = None

    @property
    def report(self) -> Path:
        return WORK / "reports" / (self.id.replace("/", "__") + ".txt")


# -- workloads ---------------------------------------------------------------

def rank3_text(label: int, perm: tuple[int, ...], flip: bool) -> str:
    """Blueprint file for labels (label, inf, inf) with generator g renamed perm[g-1].

    A hexagon's `dir6` line names the permuted edge; `flip` reverses it."""
    name = lambda g: perm[g - 1]  # noqa: E731
    lines = [f"# rank 3, labels ({label}, inf, inf), generators renamed {perm}", "rank 3"]
    for a, b, m in ((1, 2, label), (1, 3, "inf"), (2, 3, "inf")):
        x, y = sorted((name(a), name(b)))
        lines.append(f"m {x} {y} {m}")
    if label == 6:
        t, s = (1, 2) if flip else (2, 1)
        lines.append(f"dir6 {name(t)} {name(s)}")
    lines.append("default rank2")
    return "\n".join(lines) + "\n"


def workload(name: str, seed: int) -> tuple[list[Job], dict[Path, str], list[str]]:
    """The jobs, the input files they read, and one line per seeded choice."""
    if name == "validate-universal3":
        # universal3 is symmetric under relabelling, so the seed changes nothing
        return [Job("universal3", ("--builtin", "allempty:universal3", "--radius", "6",
                                   "validate"))], {}, []
    if name == "validate-rank3-moufang":
        rng = random.Random(seed)
        jobs, files, notes = [], {}, []
        for label, stem in RANK3_INPUTS:
            perm = tuple(rng.sample((1, 2, 3), 3))
            flip = label == 6 and rng.random() < 0.5
            path = WORK / "inputs" / f"{stem}.bp"
            files[path] = rank3_text(label, perm, flip)
            jobs.append(Job(stem, ("--blueprint", str(path), "--radius", "4", "validate")))
            notes.append(f"{stem}: generators renamed {perm}"
                         + (f", hexagon {'flipped' if flip else 'as in rank2:m6lr'}"
                            if label == 6 else ""))
        for stem in MUTANTS:
            jobs.append(Job(stem, ("--blueprint", f"tests/fixtures/{stem}.bp", "--radius", "6",
                                   "validate"),
                            WEYL_WITNESS if stem == "g2_weyl_mutated" else None))
        return jobs, files, notes
    if name == "rank2-hexagon":
        # both orientations of the hexagon are run, so the seed changes nothing
        return [Job(f"{variant}/{cid}", ("--builtin", f"rank2:{variant}") + argv)
                for variant in ("m6lr", "m6rl") for cid, argv in HEXAGON_COMMANDS], {}, []
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("validate-universal3", "validate-rank3-moufang", "rank2-hexagon")


def prepare(name: str, seed: int) -> tuple[list[Job], list[str]]:
    """Import rgdkit and write the workload's inputs: the measured set-up."""
    import rgdkit.cli  # noqa: F401
    jobs, files, notes = workload(name, seed)
    (WORK / "reports").mkdir(parents=True, exist_ok=True)
    for path, text in files.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return jobs, notes


def measure_setup(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds of fresh interpreters that only run `prepare`: in reference
    seconds, and as wall time.  The calibration loop runs just before and
    after each one, not during it: the child may run beside it on another core."""
    argv = [sys.executable, str(Path(__file__)), "--setup-only",
            "--workload", name, "--seed", str(seed)]
    times, walls = [], []
    for _ in range(SETUP_REPEATS):
        runs = [calibration_run() for _ in range(SETUP_CAL_RUNS)]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        t1 = time.perf_counter()
        runs += [calibration_run() for _ in range(SETUP_CAL_RUNS)]
        times.append(at_reference(t1 - t0, runs))
        walls.append(t1 - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    return times, walls


# -- machine speed -------------------------------------------------------------

def calibration_loop() -> int:
    """A fixed piece of pure-Python work that allocates no GC-tracked object."""
    table, acc = CAL_TABLE, 0
    for i in range(CAL_N):
        acc = (acc + table[acc & 63] * i) & 0xFFFFF
    return acc


def calibration_run() -> tuple[float, float]:
    """Start and end of one run of the calibration loop."""
    t0 = time.perf_counter()
    calibration_loop()
    return t0, time.perf_counter()


def at_reference(seconds: float, runs: list[tuple[float, float]]) -> float:
    """`seconds` rescaled to the speed at which one calibration loop takes CAL_REF_S."""
    return seconds * CAL_REF_S / statistics.fmean(b - a for a, b in runs)


class SpeedProbe:
    """Times the calibration loop while the measured work runs, to rescale it.

    A shared machine's speed drifts, by up to 1.6x in phases lasting from
    seconds to minutes, and the drift moves the work and the loop alike.  So
    while work runs, SIGALRM runs the loop every CAL_PERIOD_S seconds, and
    `seconds` returns the work's wall time minus the loop runs inside it,
    times CAL_REF_S over the mean loop time: the work's time at the speed
    where one loop takes CAL_REF_S.  The loop also runs once before and once
    after, so work shorter than a period has samples on both sides."""

    def __init__(self) -> None:
        self.runs: list[tuple[float, float]] = []
        self.old_handler = None

    def tick(self, *_signal) -> None:
        self.runs.append(calibration_run())

    def __enter__(self) -> SpeedProbe:
        self.runs = []
        self.tick()
        self.old_handler = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.old_handler)
        self.tick()

    def seconds(self, t0: float, t1: float) -> float:
        """Wall time from t0 to t1, less the loop runs in it, at the reference speed."""
        inside = sum(b - a for a, b in self.runs if a >= t0 and b <= t1)
        return at_reference(t1 - t0 - inside, self.runs)


# -- passes --------------------------------------------------------------------

def run_pass(jobs: list[Job], probe: SpeedProbe | None = None) -> tuple[float, list[float], list]:
    """Run every job once; return the pass's wall seconds, each job's seconds
    (in reference seconds with a probe, else wall), and each job's exit code
    or exception."""
    from rgdkit import cli
    for job in jobs:
        job.report.unlink(missing_ok=True)
    gc.collect()
    times, outcomes = [], []
    t0 = time.perf_counter()
    for job in jobs:
        sink = io.StringIO()
        with probe or contextlib.nullcontext():
            t_job = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    outcomes.append(cli.main(["--report", str(job.report), *job.argv]))
            except (Exception, SystemExit) as exc:  # a crash is a failed job, not a stop
                outcomes.append(exc)
            t_end = time.perf_counter()
        times.append(probe.seconds(t_job, t_end) if probe else t_end - t_job)
    return time.perf_counter() - t0, times, outcomes


def digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def check(jobs: list[Job], outcomes: list, goldens: dict) -> tuple[list[str], int]:
    """Failure messages for jobs that differ from their goldens, and Report.checks summed."""
    failures, checks = [], 0
    for job, rc in zip(jobs, outcomes):
        gold = goldens.get(job.id)
        text = job.report.read_text(encoding="utf-8") if job.report.exists() else ""
        checks += sum(int(m) for m in re.findall(r"^SUMMARY .* checks=(\d+) ", text, re.M))
        if isinstance(rc, BaseException):
            failures.append(f"{job.id}: raised {rc!r}")
        elif gold is None:
            failures.append(f"{job.id}: no golden verdict")
        elif rc != gold["exit"]:
            failures.append(f"{job.id}: exit {rc}, golden {gold['exit']}")
        elif digest(job.report) != gold["sha256"]:
            failures.append(f"{job.id}: report digest differs from golden")
        elif job.witness is not None and not job.witness.search(text):
            failures.append(f"{job.id}: witness {job.witness.pattern!r} missing")
    return failures, checks


def timed_passes(jobs, goldens, seconds, kinds, tracer=None, probe=None):
    """Run passes for `seconds`, cycling through `kinds` ("plain"/"traced");
    plain passes time their jobs with `probe` when one is given.

    A pass is not started when the last pass of its kind says it would end
    after the deadline, once every kind has run at least once."""
    samples = {k: [] for k in kinds}
    job_samples = {k: [] for k in kinds}
    layer_samples, checks, failures, attempted = [], [], [], 0
    start = time.perf_counter()
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        if i >= len(kinds) and time.perf_counter() - start + samples[kind][-1] > seconds:
            break
        if kind == "traced":
            tracer.reset()
            tracer.install()
            try:
                dt, job_times, outcomes = run_pass(jobs)
            finally:
                tracer.uninstall()
            layer_samples.append(tracer.layer_metrics())
        else:
            dt, job_times, outcomes = run_pass(jobs, probe)
        samples[kind].append(dt)
        job_samples[kind].append(job_times)
        bad, n_checks = check(jobs, outcomes, goldens)
        failures.extend(bad)
        checks.append(n_checks)
        attempted += len(jobs)
        i += 1
    return samples, job_samples, layer_samples, checks, failures, attempted


# -- reporting -------------------------------------------------------------------

def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spread(values: list[float]) -> str:
    return f"n={len(values)} min={min(values):.4f} max={max(values):.4f}"


def metric_line(name: str, value, unit: str, note: str = "") -> str:
    return f"metric {name} = {value} {unit}" + (f"  ({note})" if note else "")


def end_to_end(jobs, goldens, args, setup):
    """Untraced passes; the end-to-end metrics and (checks, failures, attempted)."""
    samples, job_samples, _, *tally = timed_passes(jobs, goldens, args.seconds, ("plain",),
                                                   probe=SpeedProbe())
    plain = samples["plain"]
    print(f"passes={len(plain)} wall seconds per pass, with the probe's loop runs: "
          + " ".join(f"{x:.4f}" for x in plain))
    medians = []
    for job, col in zip(jobs, zip(*job_samples["plain"])):
        medians.append(statistics.median(col))
        print(f"job {job.id}: median {medians[-1]:.4f} ref s, {spread(col)}")
    setup_times, setup_walls = setup
    values = {
        "setup_s": (statistics.median(setup_times),
                    f"median of {len(setup_times)} set-ups in ref s, {spread(setup_times)}; "
                    f"wall median {statistics.median(setup_walls):.4f} s"),
        "verdict_s": (sum(medians), f"sum over jobs of the median of {len(plain)} passes, "
                                    "in ref s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "ru_maxrss"),
    }
    metrics = {}
    for name, unit in END_TO_END:
        value, note = values[name]
        metrics[name] = {"value": value, "unit": unit}
        print(metric_line(name, value, unit, note))
    return metrics, tally


def per_layer(jobs, goldens, args):
    """Untraced and traced passes in turn; the per-layer metrics and (checks, failures, attempted)."""
    from tracing import HIT_RATIOS, LAYER_METRICS, Tracer, leftover_wrappers
    tracer = Tracer()
    samples, _, layer_samples, *tally = timed_passes(
        jobs, goldens, args.seconds, ("plain", "traced"), tracer)
    left = leftover_wrappers()
    if left:
        tally[1].append(f"tracer left wrappers behind: {left}")
    plain, traced = samples["plain"], samples["traced"]
    print(f"passes={len(plain)} untraced + {len(traced)} traced")
    metrics = {}
    for name, unit, _ in LAYER_METRICS:
        value = statistics.median(s[name] for s in layer_samples)
        metrics[name] = {"value": value, "unit": unit}
        note = ""
        if name in HIT_RATIOS:
            layer, fn = HIT_RATIOS[name][1]
            note = f"base: {tracer.spans[(layer, fn)][0]} {layer}.{fn} calls per pass"
        print(metric_line(name, value, unit, note))
    self_sum = statistics.median(
        sum(v for k, v in s.items() if k.endswith(".self_s")) for s in layer_samples)
    ratio = statistics.median(traced) / statistics.median(plain)
    metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    metrics["trace.verdict_s"] = {"value": statistics.median(traced), "unit": "s"}
    print(metric_line("trace.overhead_ratio", ratio, "ratio",
                      f"traced {spread(traced)} / untraced {spread(plain)}"))
    print(metric_line("trace.verdict_s", metrics["trace.verdict_s"]["value"], "s",
                      f"layer self times sum to {self_sum:.4f} s"))
    out = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    out.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                               "spans": tracer.span_table()}, indent=1))
    print(f"spans of the last traced pass written to {out}")
    return metrics, tally


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only import rgdkit and write the inputs (timed as setup_s)")
    parser.add_argument("--write-goldens", action="store_true",
                        help="record the workload's current exit codes and report digests "
                             "as its goldens")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rgdkit" / "cli.py").is_file() or not (ROOT / "tests" / "fixtures").is_dir():
        print(f"error: {ROOT} is not an rgdkit checkout (src/rgdkit, tests/fixtures)",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        prepare(args.workload, args.seed)
        return 0

    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
    if args.write_goldens:
        return write_goldens(args.workload, goldens)

    setup = measure_setup(args.workload, args.seed) if args.trace == 0 else None
    jobs, notes = prepare(args.workload, args.seed)
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"git={git_sha()} python={platform.python_version()} nproc={os.cpu_count()} "
          f"jobs={len(jobs)} seconds={args.seconds:g}")
    for note in notes:
        print(f"input {note}")

    if args.trace == 0:
        metrics, (checks, failures, attempted) = end_to_end(jobs, goldens, args, setup)
    else:
        metrics, (checks, failures, attempted) = per_layer(jobs, goldens, args)

    failed = min(len(failures), attempted)
    ratio = failed / attempted
    checks_value = statistics.median(checks)
    print(metric_line("reports.checks", checks_value, "count", "Report.checks summed per pass"))
    print(metric_line("failed_ratio", ratio, "ratio", f"{failed} of {attempted} jobs"))
    for msg in failures:
        print(f"FAILED {msg}")
    if args.trace == 1:
        metrics["reports.checks"] = {"value": checks_value, "unit": "count"}
        metrics["failed_ratio"] = {"value": ratio, "unit": "ratio"}
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


def write_goldens(name: str, goldens: dict) -> int:
    """Run one pass of a workload and store each job's exit code and report digest."""
    jobs, _ = prepare(name, 0)
    _, _, outcomes = run_pass(jobs)
    for job, rc in zip(jobs, outcomes):
        if isinstance(rc, BaseException):
            print(f"error: {job.id} raised {rc!r}", file=sys.stderr)
            return 1
        goldens[job.id] = {"exit": rc, "sha256": digest(job.report)}
        print(f"{job.id}: exit {rc}")
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
