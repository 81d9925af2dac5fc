"""Exact-solve benchmark: drives the ifgames CLI in-process and times it.

    python3 perfbench/run.py --workload mh_value [--seed 1] [--seconds 32] [--trace 0|1]

One process per workload, one client, one request at a time (a closed
loop, no extra threads).  A request is issued while it is expected to end
within ``--seconds`` of the first (judged by the median request so far),
and at least ``MIN_REQUESTS`` are.  Every answer is checked
against its pinned exact rational; a failed check fails the request and
makes the run exit 1.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics:
``setup_s`` (a fresh interpreter importing ``ifgames.cli``, median of
several), and per-request medians of ``wall_s`` and ``cpu_s``, plus the
process's ``peak_rss_mb``.  With ``--trace 1`` untraced and traced requests
alternate; the public functions of each layer are wrapped from outside
(see ``LAYERS``) and the line reports each layer's self time, the work
counts, and the tracing overhead.  The lines before it print every metric
with its unit and the environment.

The corpus inputs are pinned, so ``--seed`` only changes the Monte Carlo
seed of ``mc_condition``; the other workloads ask the same question on
every seed.  See ``README.md`` for why each workload is here.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = SRC / "ifgames" / "corpus"
DUAL_SENTENCE = HERE / "phi_mh_dual.if"

MIN_REQUESTS = 2
SETUP_REPEATS = 7
PLAYS = 100_000
MH_VALUE = Fraction(2, 3)
DUAL_VALUE = Fraction(1, 3)
STICK = "z != x and z != y#1 and y = y#1"
SWITCH = "z != x and z != y#1 and y != y#1"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


# ------------------------------------------------------------ workloads

def _value_argv(sentence: Path) -> list[str]:
    return ["value", str(sentence), str(CORPUS / "doors3.struct"),
            "--format", "structured"]


def _chance_argv(command: str) -> list[str]:
    return [command, str(CORPUS / "phi_mh_prime_chance.if"),
            str(CORPUS / "doors3.struct"),
            "--profile", str(CORPUS / "mh_prime_chance_paper.profile")]


def _expect_value(pinned: Fraction):
    def check(out: str) -> str | None:
        got = Fraction(json.loads(out)["value"])
        return None if got == pinned else f"value {got}, pinned {pinned}"
    return check


def _expect_condition(out: str) -> str | None:
    got = Fraction(json.loads(out)["conditional_value"])
    return None if got == Fraction(1, 2) else f"condition {got}, pinned 1/2"


def _expect_simulation(seed: int):
    """Both events win 1/2 of their hits, within 4·sqrt(v(1-v)/hits) (the
    acceptance suite's Monte Carlo bound), and every output of one run with
    the same seed is byte-identical to the first."""
    first: list[str] = []

    def check(out: str) -> str | None:
        if first and out != first[0]:
            return "simulate output differs from an earlier one with the same seed"
        first.append(out)
        report = json.loads(out)
        if report["plays"] != PLAYS or report["seed"] != seed:
            return f"simulate ran {report['plays']} plays at seed {report['seed']}"
        half = Fraction(1, 2)
        for name in (STICK, SWITCH):
            hits, wins = report["events"][name]["hits"], report["events"][name]["wins"]
            if hits == 0:
                return f"event {name!r} never hit"
            if (Fraction(wins, hits) - half) ** 2 > 16 * half * (1 - half) / hits:
                return f"event {name!r} won {wins}/{hits}, outside the bound of 1/2"
        return None
    return check


def workload_steps(name: str, seed: int):
    """The CLI calls of one request, each with the check of its output."""
    if name == "mh_value":
        return [(_value_argv(CORPUS / "phi_mh.if"), _expect_value(MH_VALUE))]
    if name == "mh_dual_value":
        return [(_value_argv(DUAL_SENTENCE), _expect_value(DUAL_VALUE))]
    if name == "mh_prime_value":
        return [(_value_argv(CORPUS / "phi_mh_prime.if"),
                 _expect_value(Fraction(1, 3)))]
    if name == "mc_condition":
        condition = _chance_argv("condition") + ["--event", STICK,
                                                 "--format", "structured"]
        simulate = _chance_argv("simulate") + [
            "--plays", str(PLAYS), "--seed", str(seed), "--event", STICK,
            "--event", SWITCH, "--format", "structured"]
        return [(condition, _expect_condition), (simulate, _expect_simulation(seed))]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("mh_value", "mh_dual_value", "mh_prime_value", "mc_condition")


def _sentence(path: Path) -> str:
    lines = path.read_text().splitlines()
    return " ".join(line.strip() for line in lines
                    if line.strip() and not line.lstrip().startswith("#"))


def check_dual(cli) -> str | None:
    """The stored dual is ~(phi_mh) word for word, and its pinned value (which
    every request was checked against) is 1 minus the value of phi_mh
    computed in this run."""
    expected = f"~({_sentence(CORPUS / 'phi_mh.if')})"
    if _sentence(DUAL_SENTENCE) != expected:
        return f"{DUAL_SENTENCE.name} is not {expected}"
    rc, out, err = call_cli(cli, _value_argv(CORPUS / "phi_mh.if"))
    if rc != 0:
        return f"phi_mh value exited {rc}: {err.strip()}"
    mh = Fraction(json.loads(out)["value"])
    if DUAL_VALUE != 1 - mh:
        return f"dual value {DUAL_VALUE} is not 1 - {mh}"
    return None


# --------------------------------------------------------------- tracing

# span name -> (module, function); a name ending in "_" stands for every
# public function of the module that starts with it
LAYERS = {
    "cli": ("ifgames.cli", "main"),
    "parser": ("ifgames.parser", "parse_"),
    "game.build_semantic_game": ("ifgames.game", "build_semantic_game"),
    "strategy.enumerate_reduced": ("ifgames.strategy", "enumerate_reduced"),
    "strategy.outcome_distribution": ("ifgames.strategy", "outcome_distribution"),
    "solver.build_matrix": ("ifgames.solver", "build_matrix"),
    "solver.reduce_matrix": ("ifgames.solver", "reduce_matrix"),
    "solver.solve_zero_sum": ("ifgames.solver", "solve_zero_sum"),
    "solver.verify_equilibrium": ("ifgames.solver", "verify_equilibrium"),
    "solver.conditional_value": ("ifgames.solver", "conditional_value"),
    "solver.simulate": ("ifgames.solver", "simulate"),
}

COUNTS = ("game.nodes", "strategy.strategies_I", "strategy.strategies_II",
          "strategy.outcome_distribution.calls", "solver.build_matrix.cells",
          "solver.build_matrix.win_terminals", "solver.build_matrix.macs",
          "solver.build_matrix.operand_mb", "solver.reduce_matrix.rows_out",
          "solver.reduce_matrix.cols_out", "solver.reduce_matrix.kept_cells_ratio",
          "solver.reduce_matrix.dominance_skipped",
          "solver.solve_zero_sum.column_generation", "solver.support_I",
          "solver.support_II")


def _arg(args, kwargs, pos: int, name: str, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


class Tracer:
    """Spans around the layers' public functions, wrapped from outside.

    Each function is replaced in every ``ifgames`` module namespace that
    binds it, so calls between modules (``build_matrix`` ->
    ``enumerate_reduced``, ``solve_zero_sum`` -> ``verify_equilibrium``)
    nest as child spans.  A layer whose function no longer exists is
    reported as absent.
    """

    def __init__(self):
        import ifgames.game
        import ifgames.solver
        self.exist = ifgames.game.EXIST
        self.simplex_cap = getattr(ifgames.solver, "DEFAULT_SIMPLEX_CAP", None)
        self.spans: list[list] = []  # [layer, start, end, parent index]
        self.stack: list[int] = []
        self.facts: dict = {}
        self.patches: list[tuple[object, str, object]] = []
        self.absent: set[str] = set()
        self.targets: dict[object, object] = {}
        notes = {"game.build_semantic_game": self._note_game,
                 "strategy.enumerate_reduced": self._note_strategies,
                 "solver.build_matrix": self._note_matrix,
                 "solver.reduce_matrix": self._note_reduced,
                 "solver.solve_zero_sum": self._note_equilibrium,
                 "solver.simulate": self._note_simulation}
        for layer, (module_name, name) in LAYERS.items():
            module = sys.modules[module_name]
            found = [fn for attr, fn in vars(module).items()
                     if callable(fn) and getattr(fn, "__module__", None) == module_name
                     and (attr.startswith(name) if name.endswith("_") else attr == name)]
            if not found:
                self.absent.add(layer)
            for fn in found:
                self.targets[fn] = self._wrap(layer, fn, notes.get(layer))

    def install(self):
        for module_name, module in list(sys.modules.items()):
            if module_name != "ifgames" and not module_name.startswith("ifgames."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self.targets.get(value) if callable(value) else None
                if wrapper is not None:
                    self.patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, value in reversed(self.patches):
            setattr(module, attr, value)
        self.patches.clear()

    def _wrap(self, layer: str, fn, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, self.stack[-1] if self.stack else None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if note is not None:
                try:
                    note(args, kwargs, result)
                except (AttributeError, TypeError, IndexError) as exc:
                    self.absent.add(f"{layer} counts ({exc})")
            return result
        return traced

    # Notes read sizes off arguments and results.  They run outside the
    # callee's span, inside its parent's, and cost microseconds (games here
    # have a few hundred nodes); that cost shows in trace.overhead_s.
    def _note_game(self, args, kwargs, game):
        self.facts["game.nodes"] = len(game)

    def _note_strategies(self, args, kwargs, strategies):
        side = "I" if _arg(args, kwargs, 1, "player") == self.exist else "II"
        self.facts[f"strategy.strategies_{side}"] = len(strategies)

    def _note_matrix(self, args, kwargs, matrix):
        g = _arg(args, kwargs, 0, "g")
        self.facts["matrix_shape"] = matrix.shape
        self.facts["solver.build_matrix.win_terminals"] = sum(
            1 for t in g.terminals() if g.winner_of[t] == self.exist)

    def _note_reduced(self, args, kwargs, reduced):
        rows, cols = reduced.shape
        self.facts["solver.reduce_matrix.rows_out"] = rows
        self.facts["solver.reduce_matrix.cols_out"] = cols
        self.facts["solver.reduce_matrix.dominance_skipped"] = int(
            any("dominance elimination skipped" in line for line in reduced.log))

    def _note_equilibrium(self, args, kwargs, eq):
        rows, cols = _arg(args, kwargs, 0, "m").shape
        cap = _arg(args, kwargs, 1, "simplex_cap", self.simplex_cap)
        self.facts["solver.solve_zero_sum.column_generation"] = int(rows * cols > cap)
        self.facts["solver.support_I"] = len(eq.row_mix)
        self.facts["solver.support_II"] = len(eq.col_mix)

    def _note_simulation(self, args, kwargs, report):
        self.facts["plays"] = self.facts.get("plays", 0) + report.plays

    def begin_request(self):
        self.spans.clear()
        self.facts = {}

    def request_metrics(self) -> dict[str, float]:
        """Self time per layer and the work counts of the request just run."""
        self_s = dict.fromkeys(LAYERS, 0.0)
        span_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        for layer, start, end, parent in self.spans:
            self_s[layer] += end - start
            span_s[layer] += end - start
            calls[layer] += 1
            if parent is not None:
                self_s[self.spans[parent][0]] -= end - start
        out = {f"{layer}.self_s": value for layer, value in self_s.items()}
        out["trace.wall_s"] = sum(end - start for _, start, end, parent in self.spans
                                  if parent is None)
        out["solver.simulate.plays_per_s"] = (
            self.facts.get("plays", 0) / span_s["solver.simulate"]
            if span_s["solver.simulate"] else 0.0)
        counts = dict.fromkeys(COUNTS, 0)
        counts.update((k, v) for k, v in self.facts.items() if k in counts)
        counts["strategy.outcome_distribution.calls"] = \
            calls["strategy.outcome_distribution"]
        if "matrix_shape" in self.facts:
            rows, cols = self.facts["matrix_shape"]
            wins = counts["solver.build_matrix.win_terminals"]
            counts["solver.build_matrix.cells"] = rows * cols
            counts["solver.build_matrix.macs"] = rows * cols * wins
            counts["solver.build_matrix.operand_mb"] = (rows + cols) * wins * 8 / 1e6
            if rows * cols:
                counts["solver.reduce_matrix.kept_cells_ratio"] = (
                    counts["solver.reduce_matrix.rows_out"]
                    * counts["solver.reduce_matrix.cols_out"] / (rows * cols))
        out.update(counts)
        return out


# ---------------------------------------------------------------- running

def call_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed request, not a failed benchmark
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def run_request(cli, steps) -> tuple[float, float, str | None]:
    """Wall and CPU seconds of one request, and its first failed check."""
    wall = cpu = 0.0
    failure = None
    for argv, check in steps:
        w0, c0 = time.perf_counter(), time.process_time()
        rc, out, err = call_cli(cli, argv)
        wall += time.perf_counter() - w0
        cpu += time.process_time() - c0
        if failure is None:
            if rc != 0:
                failure = f"{argv[0]} exited {rc}: {err.strip()[-500:]}"
            else:
                try:
                    failure = check(out)
                except (ValueError, KeyError, TypeError) as exc:
                    failure = f"{argv[0]} output unreadable: {exc!r}"
    return wall, cpu, failure


def measure_setup() -> list[float]:
    """Seconds for a fresh interpreter to import ``ifgames.cli``, per try.

    One untimed import first writes the bytecode caches, which an installed
    package has too."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import ifgames.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - t0)
    return times


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    top = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    top.add_argument("--workload", required=True, choices=WORKLOADS)
    top.add_argument("--seed", type=int, default=1,
                     help="Monte Carlo seed of mc_condition (default 1)")
    top.add_argument("--seconds", type=float, default=32.0,
                     help="how long to keep issuing requests")
    top.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = top.parse_args(argv)

    if not (SRC / "ifgames" / "cli.py").is_file():
        print(f"error: no ifgames sources under {SRC}", file=sys.stderr)
        return 2
    setup_times = measure_setup()
    sys.path.insert(0, str(SRC))
    import ifgames.cli as cli
    if SRC not in Path(cli.__file__).resolve().parents:
        print(f"error: imported ifgames from {cli.__file__}", file=sys.stderr)
        return 2

    steps = workload_steps(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    walls, cpus, traced, traced_walls = [], [], [], []
    failures: list[str] = []
    start = time.perf_counter()
    while (len(walls) + len(traced) < MIN_REQUESTS
           or time.perf_counter() - start + statistics.median(walls + traced_walls)
           <= args.seconds):
        tracing = tracer is not None and len(traced) < len(walls)
        if tracing:
            tracer.begin_request()
            tracer.install()
        try:
            wall, cpu, failure = run_request(cli, steps)
        finally:
            if tracing:
                tracer.uninstall()
        if tracing:
            traced.append(tracer.request_metrics())
            traced_walls.append(wall)
        else:
            walls.append(wall)
            cpus.append(cpu)
        if failure:
            failures.append(failure)
        gc.collect()
    attempted = len(walls) + len(traced)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = list(failures)
    if args.workload == "mh_dual_value" and not failures:
        problem = check_dual(cli)
        if problem:
            problems.append(f"dual check: {problem}")

    if tracer is None:
        samples = {"setup_s": (setup_times, "s"), "wall_s": (walls, "s"),
                   "cpu_s": (cpus, "s"), "peak_rss_mb": ([peak_rss_mb], "MB")}
        metrics = {}
        for name, (values, unit) in samples.items():
            q1, med, q3 = _quartiles(values)
            metrics[name] = {"value": med, "unit": unit}
            print(f"{name} = {med:.6g} {unit}  (median of {len(values)}; "
                  f"q1 {q1:.6g}, q3 {q3:.6g})")
    else:
        metrics = {}
        for name in traced[0]:
            values = [m[name] for m in traced]
            if name in COUNTS and any(v != values[0] for v in values):
                problems.append(f"count {name} differs between requests: {values}")
            unit = "1/s" if name.endswith("_per_s") else "s" if name.endswith("_s") \
                else "ratio" if name.endswith("ratio") \
                else "MB-computed" if name.endswith("_mb") else "count"
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced_walls) - statistics.median(walls),
            "unit": "s"}
        for m in traced:
            layers = sum(m[f"{layer}.self_s"] for layer in LAYERS)
            if abs(layers - m["trace.wall_s"]) > 1e-6 * max(1.0, m["trace.wall_s"]):
                problems.append(f"self times sum to {layers}, traced wall "
                                f"{m['trace.wall_s']}")
        for name, metric in metrics.items():
            print(f"{name} = {metric['value']:.6g} {metric['unit']}")
        print(f"traced requests: {len(traced)}, untraced: {len(walls)}; "
              f"kept_cells_ratio is of solver.build_matrix.cells")
        print(f"absent layers: {', '.join(sorted(tracer.absent)) or 'none'}")
    print(f"fail_ratio = {len(failures)}/{attempted}")
    for problem in problems:
        print(f"FAILED: {problem}")
    print("env: " + json.dumps(environment(args), sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
