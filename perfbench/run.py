"""Benchmark of flowallometry: one researcher session per run.

    python3 perfbench/run.py --workload year-4digit --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

A run imports the package from ``src/`` of the checkout it sits in, loads
its inputs (set-up), then repeats whole rounds of a fixed analysis through
the public API for ``--seconds`` seconds (the timed phase), and finally
checks every output against ``check.py``'s independent references.
``setup_s`` is the median of fresh-interpreter set-ups (``setup_probe.py``)
spread evenly through the timed phase, so that it samples the host's speed
over the whole run rather than over one moment of it.  The
caller is single and closed-loop; BLAS runs one thread.  Inputs come from
``corpus.py``, generated in a child process and cached under
``.perfbench_cache/``; generation is never timed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps each
layer's public functions (``spans.py``) and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every check passed, 1 when one failed, and 2 when the run could not
start.
"""

from __future__ import annotations

import os

# Before numpy loads: one BLAS thread, so one caller means one busy core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

import corpus
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"
CACHE_KEEP = 4                 # cached seeds kept per workload
SETUP_PROBES = 9               # fresh-interpreter set-ups in an untraced run
TRACED_SETUPS = 3              # in-process set-ups in a traced run
MIN_ROUNDS = 3                 # untraced; a traced run does 2 of each kind
MIN_COUNTRIES = 10


class YearSession:
    """One year at four digits: batch with the integrated network, then
    the complexity table, PRODY and its correlation with the exponents."""

    year = 2000

    def setup(self, fa, inputs):
        records = fa.parse_trades(inputs / "trades.csv")
        gdp = fa.parse_attributes(inputs / "gdp.csv", kind="gdp")
        return records, {a.country: a.value for a in gdp}

    def round(self, fa, state):
        records, gdp = state
        outcome = fa.batch(records, self.year, 4, min_countries=MIN_COUNTRIES)
        table = fa.complexity_table(records, self.year, 4, gdp=gdp)
        prody = fa.prody_all(table)
        r, pairs = fa.correlate_complexity(outcome.results, prody)
        return (outcome, table, prody, r, pairs), 0

    def count(self, state, out):
        outcome = out[0]
        return len(outcome.results) + len(outcome.skipped) + 1, 3

    def digest(self, out):
        outcome, table, prody, r, pairs = out
        return outcome, table.exports.tobytes(), prody, r, pairs

    def check(self, check, out, truth, rng):
        outcome, table, prody, r, pairs = out
        return (check.check_batch(outcome, truth, self.year, 4, MIN_COUNTRIES, rng)
                + check.check_complexity(table, prody, truth, self.year, 4)
                + check.check_correlation(r, pairs, outcome.results, prody))


class EnsembleSession:
    """Flow calculus, fit and inequality on every network of a dense
    ensemble, then backbones over a sweep of alphas on a subset."""

    backbone_subset = 3
    alphas = (0.02, 0.1, 0.3, 0.6)

    def setup(self, fa, inputs):
        names = corpus.country_codes(corpus.ENSEMBLE_N[1])
        with np.load(inputs / "ensemble.npz") as arrays:
            fluxes = [arrays[key] for key in arrays.files]
        return [fa.FlowNetwork(names[:len(flux)], flux, f"E{k:02d}", 2000)
                for k, flux in enumerate(fluxes)]

    def round(self, fa, nets):
        results, failed = [], 0
        for net in nets:
            try:
                analysis = fa.analyze(net)
                fitted = fa.fit(analysis.throughflow, analysis.impact)
                report = fa.inequality_report(net.nodes, analysis.impact)
            except fa.FlowAnalysisError:
                failed += 1
                results.append(None)
                continue
            results.append((net, analysis, fitted, report))
        backbones = [(net, {alpha: fa.extract(net, alpha).kept for alpha in self.alphas})
                     for net in nets[:self.backbone_subset]]
        return (results, backbones), failed

    def count(self, nets, out):
        return len(nets), self.backbone_subset * len(self.alphas)

    def digest(self, out):
        results, backbones = out
        return ([None if r is None else (r[2], r[3], r[1].impact.tobytes()) for r in results],
                [kept for _, kept in backbones])

    def check(self, check, out, truth, rng):
        results, backbones = out
        problems = []
        for item in results:
            if item is not None:
                net, analysis, fitted, report = item
                problems += check.check_analysis(net.product, list(net.nodes), net.flux,
                                                 analysis, fitted, report, rng)
        for net, kept in backbones:
            problems += [f"{net.product}: {p}"
                         for p in check.check_backbones(list(net.nodes), net.flux, kept)]
        return problems


SESSIONS = {"year-4digit": YearSession, "ensemble-kernels": EnsembleSession}


def ensure_inputs(workload: str, seed: int) -> Path:
    """Generate (or reuse) the workload's inputs in a child process."""
    out = CACHE / f"{workload}-{seed}"
    if not out.is_dir():
        CACHE.mkdir(exist_ok=True)
        subprocess.run([sys.executable, str(HERE / "corpus.py"), "--workload", workload,
                        "--seed", str(seed), "--out", str(out)], check=True, timeout=170)
        cached = sorted(CACHE.glob(f"{workload}-*"), key=lambda p: p.stat().st_mtime)
        for stale in cached[:-CACHE_KEEP]:
            shutil.rmtree(stale, ignore_errors=True)
    return out


def setup_seconds(workload: str, inputs: Path) -> float:
    """One set-up, ``import flowallometry`` plus the loads, in a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(inputs)],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Rounds:
    """Whole rounds of the analysis; every round must give the same output."""

    def __init__(self, session, fa, state):
        self.session, self.fa, self.state = session, fa, state
        self.times: list[float] = []
        self.failed = 0
        self.last = self._first = None
        self.deterministic = True

    def run(self, seconds: float, min_rounds: int, tracer=None, probe=None,
            probes: int = 0) -> tuple[list[float], list[float]]:
        """Round times, and the values of ``probe()`` called ``probes``
        times at even steps through the run, each between two rounds."""
        gc.collect()
        times, probed = [], []
        start = time.perf_counter()
        while True:
            if len(probed) < probes and (time.perf_counter() - start
                                         >= len(probed) * seconds / probes):
                probed.append(probe())
            self.last = None          # hold one round's outputs at a time
            t0 = time.perf_counter()
            out, failed = self.session.round(self.fa, self.state)
            times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end_phase("round")
            digest = self.session.digest(out)
            if self._first is None:
                self._first = digest
            elif digest != self._first:
                self.deterministic = False
            self.last = out
            self.failed += failed
            elapsed = time.perf_counter() - start
            if len(times) >= min_rounds and elapsed + statistics.median(times) > seconds:
                self.times += times
                probed += [probe() for _ in range(probes - len(probed))]
                return times, probed


def layer_metrics(tracer: spans.Tracer, overhead: float) -> dict:
    per = tracer.per_session
    parse_s = per("ingest.parse_trades", "busy")
    metrics = {
        "ingest.parse_trades.s": (parse_s, "s"),
        "ingest.rows_per_s": (per("ingest.parse_trades", "rows_out") / parse_s
                              if parse_s else 0.0, "1/s"),
        "ingest.rss_mb": (tracer.total("ingest.parse_trades", "peak_mb"), "MB"),
        "netcore.build_network.calls": (per("netcore.build_network", "calls"), "count"),
        "netcore.build_network.s": (per("netcore.build_network", "busy"), "s"),
        "netcore.build_network.records_in": (per("netcore.build_network", "records_in"),
                                             "count"),
        "netcore.FlowNetwork.s": (per("netcore.FlowNetwork", "busy"), "s"),
        "pipeline.batch.self_s": (per("pipeline.batch", "self_time"), "s"),
    }
    for layer in ("flowcalc.analyze", "backbone.extract"):
        calls, busy = per(layer, "calls"), per(layer, "busy")
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.s"] = (busy, "s")
        metrics[f"{layer}.ms_per_call"] = (1000 * busy / calls if calls else 0.0, "ms")
    for layer in ("allometry.fit", "metrics.inequality_report",
                  "metrics.complexity_table", "metrics.prody_all"):
        metrics[f"{layer}.s"] = (per(layer, "busy"), "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def run(workload: str, seed: int, seconds: float, traced: bool) -> int:
    if not (SRC / "flowallometry" / "__init__.py").is_file():
        print(f"no package at {SRC.relative_to(ROOT)}/flowallometry; run from a checkout",
              file=sys.stderr)
        return 2
    inputs = ensure_inputs(workload, seed)
    sys.path.insert(0, str(SRC))
    import flowallometry as fa
    warnings.simplefilter("ignore", fa.FlowDataWarning)

    session = SESSIONS[workload]()
    tracer = spans.Tracer() if traced else None
    load_times = []

    def load():
        gc.collect()
        t0 = time.perf_counter()
        if tracer is None:
            state = session.setup(fa, inputs)
        else:
            with tracer:
                state = session.setup(fa, inputs)
            tracer.end_phase("setup")
        load_times.append(time.perf_counter() - t0)
        return state

    rounds = Rounds(session, fa, load())
    if tracer is None:
        times, setups = rounds.run(seconds, MIN_ROUNDS, probes=SETUP_PROBES,
                                   probe=lambda: setup_seconds(workload, inputs))
        wall = statistics.median(times)
    else:
        plain = statistics.median(rounds.run(seconds / 2, 2)[0])
        with tracer:
            wall = statistics.median(rounds.run(seconds / 2, 2, tracer)[0])
    peak = peak_rss_mb()
    networks, extra = session.count(rounds.state, rounds.last)
    attempted = len(rounds.times) * (networks + extra)
    if tracer is not None:
        # Further traced set-ups give a steadier median.  They run after the
        # peak is read, and each is dropped at once, so the peak stays one
        # session's.
        rounds.state = None
        for _ in range(TRACED_SETUPS - 1):
            load()

    import check  # loads scipy, so only after the peak RSS is read
    problems = session.check(check, rounds.last, _truth(inputs), np.random.default_rng(seed))
    if not rounds.deterministic:
        problems.insert(0, "rounds gave different outputs")
    if tracer is None:
        metrics = {"setup_s": (statistics.median(setups), "s"), "wall_s": (wall, "s"),
                   "networks_per_s": (networks / wall, "1/s"),
                   "peak_rss_mb": (peak, "MB")}
    else:
        metrics = layer_metrics(tracer, wall - plain)

    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    print(f"{workload} seed {seed}: attempted {attempted}, failed {rounds.failed}, "
          f"{len(problems)} check failures; set-ups "
          + " ".join(f"{t:.3f}" for t in (load_times if tracer else setups)) + " s; rounds "
          + " ".join(f"{t:.3f}" for t in rounds.times) + " s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": rounds.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 1 if problems else 0


def _truth(inputs: Path):
    path = inputs / "truth.npz"
    if not path.exists():
        return None
    with np.load(path) as arrays:
        return {key: arrays[key] for key in arrays.files}


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Every workload, each in its own process so peak RSS stays its own."""
    worst = 0
    for workload in SESSIONS:
        proc = subprocess.run([sys.executable, __file__, "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(traced))], timeout=600)
        worst = max(worst, proc.returncode)
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*SESSIONS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
