#!/usr/bin/env python3
"""Round-based dynamic-walk benchmark for BINGO.

    python3 perfbench/run.py --workload walk-tw --seed 1 --seconds 8 --trace 0

Each workload follows the paper's §6.1 protocol with one closed-loop
client: round r applies one update batch, then runs one walk app, and
round r+1 starts only after round r's walks return. The graph is a fixed
lite dataset, ``synth_data.graph_edges(graph, seed=GRAPH_SEED)``, as the
paper's datasets are fixed; ``--seed`` draws the rest of the inputs: the
initial/update split and batches of ``graphs.updates.make_update_plan``
and the walk RNG. Rounds run until ``--seconds`` have passed; after the
10 planned batches come their inverses (see ``update_schedule``). The
timed run calls only ``BingoStore(...)``, ``apply_batch``, the
``walk.APPS`` kernels and ``SparkBingoEngine``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics (see
``layers.py``) and the tracing overhead; its spans go to
``.perfbench_out/``. Every run checks its outputs (see ``checks.py``)
outside the timed region. The last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 1 when a check fails and 2 when the program cannot be found.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Update batches planned per run: the paper's 10 rounds per Table 3
#: cell. The initial graph is |E| - ROUNDS * batch_size edges.
ROUNDS = 10
#: Generator seed of the lite graphs: the graph Tables 2-4 are run on.
#: Graphs drawn per --seed differ in hub sizes, which moved update cost
#: by ~12% from seed to seed.
GRAPH_SEED = 7
UPDATE_MODE = "mixed"
#: First hops drawn from the hub for the chi-square check.
HOP_DRAWS = 200_000
SPARK_HOP_DRAWS = 20_000
#: Smallest chi-square p-value accepted; a biased sampler gives ~0.
MIN_PVALUE = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    graph: str        # name in synth_data.GRAPH_SPECS
    batch_size: int   # update events per round
    app: str          # key of walk.APPS, or "spark" for SparkBingoEngine.walk
    walkers: int
    length: int       # walk length (unused by "simple")
    setup_reps: int   # builds timed for setup_s; see WORKLOADS


#: Why each workload was chosen is recorded in BENCHMARK.json. TW-lite's
#: ~10 s build and the Spark build are timed once to keep a run near 30 s;
#: the one Spark build includes starting the Python workers.
WORKLOADS = {
    w.name: w
    for w in [
        Workload("walk-tw", "TW", 1000, "deepwalk", 4096, 80, 1),
        Workload("churn-lj", "LJ", 10_000, "simple", 4096, 1, 3),
        Workload("node2vec-lj", "LJ", 1000, "node2vec", 1024, 80, 3),
        Workload("spark-am", "AM", 1000, "spark", 256, 20, 1),
    ]
}

#: End-to-end metrics of a --trace 0 run: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "round_s_p50": "s",
    "update_events_per_s": "1/s",
    "walk_steps_per_s": "1/s",
    "memory_mb": "MB",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of a --trace 1 run: name -> unit. A layer a
#: workload does not run reads 0.
PER_LAYER = {
    "core.build.vertices": "count",
    "core.build.alias_tables": "count",
    "core.build.traced_peak_mb": "MB",
    "core.update.resolve_s": "s/round",
    "core.update.vertex_batch_s": "s/round",
    "core.update.batched_delete_s": "s/round",
    "core.update.alias_rebuild_s": "s/round",
    "core.update.alias_rebuilds": "count/round",
    "core.update.vertices_touched": "count/round",
    "core.update.events_per_touched_vertex": "ratio",
    "core.update.group_conversions": "count/round",
    "walk.sample_next_s": "s/round",
    "walk.vertices_s": "s/round",
    "walk.engine_self_s": "s/round",
    "walk.sample_next_calls": "count/round",
    "walk.dispatch_groups": "count/round",
    "walk.walkers_per_group": "ratio",
    "walk.dense_draws": "count/round",
    "walk.dense_s": "s/round",
    "walk.n2v.has_edge_calls": "count/round",
    "walk.n2v.has_edge_s": "s/round",
    "walk.n2v.accept_ratio": "ratio",
    "spark.session_s": "s",
    "spark.update_s": "s/round",
    "spark.walk_s": "s/round",
    "spark.jobs": "count/round",
    "spark.state_mb": "MB",
    "spark.steps_per_job": "count",
    "spark.cross_partition_frac": "ratio",
    "core.groups.dense": "count",
    "core.groups.regular": "count",
    "core.groups.sparse": "count",
    "core.groups.one_element": "count",
    "split.update_frac": "ratio",
    "split.app_frac": "ratio",
    "split.other_frac": "ratio",
    "trace.round_s": "s",
    "trace.overhead_frac": "ratio",
}

#: Round shares each workload was chosen for, checked from the trace.
PREDICTED_SHARES = {"walk-tw": ("app", 0.90), "churn-lj": ("update", 0.80)}


def use_checkout_src() -> bool:
    """Import ``repro`` from this checkout's ``src/``, here and in Spark's
    Python workers. False when the checkout has no program."""
    if not (SRC / "repro").is_dir():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
    return True


def environment(seed: int, master: str, cpu) -> dict:
    import pandas
    import pyspark

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "nproc": os.cpu_count(), "pinned_cpu": cpu, "spark_master": master,
        "python": platform.python_version(), "numpy": np.__version__,
        "pandas": pandas.__version__, "pyspark": pyspark.__version__,
        "commit": commit, "seed": seed,
    }


# -- engines ------------------------------------------------------------------


class LocalEngine:
    """One ``BingoStore``; the app is a ``walk.APPS`` kernel.

    The process is pinned to one CPU while the engine is open: the
    store is single-threaded, and moving between CPUs made its rounds
    slower and their times more erratic."""

    master = "none"

    def __init__(self, wl: Workload) -> None:
        from repro.walk import APPS

        self.wl = wl
        self.app = APPS[wl.app]
        self.store = None
        self._cpus = os.sched_getaffinity(0)
        self.cpu = max(self._cpus)
        os.sched_setaffinity(0, {self.cpu})

    def reset(self) -> None:
        self.store = None

    def build(self, initial) -> None:
        from repro.core import BingoStore

        self.store = BingoStore(initial)

    def update(self, batch, r: int) -> None:
        self.store.apply_batch(batch)

    def walk(self, rng, r: int):
        kw = {"walkers": self.wl.walkers}
        if self.wl.app != "simple":
            kw["length"] = self.wl.length
        return self.app(self.store, rng, **kw)

    def transitions(self, res):
        import checks

        src, dst = checks.path_transitions(res.paths)
        return res.steps, src, dst, 0

    def first_hops(self, rng, hub: int):
        from repro.walk import APPS

        return APPS["simple"](self.store, rng, starts=np.full(HOP_DRAWS, hub)).paths[:, 1]

    def edges(self):
        return self.store.edges()

    def memory_bytes(self) -> int:
        return sum(self.store.memory_bytes())

    def _conversions(self) -> int:
        return sum(self.store.conversion_stats()[0].values())

    def begin_traced_round(self) -> None:
        self._conv0 = self._conversions()

    def end_traced_round(self, r: int, src, dst) -> Counter:
        return Counter(conversions=self._conversions() - self._conv0)

    def layer_metrics(self, counts: Counter, rounds: int, steps: int) -> dict:
        return {"core.update.group_conversions": counts["conversions"] / rounds}

    def group_census(self) -> Counter:
        return self.store.group_kind_histogram()

    def close(self) -> None:
        os.sched_setaffinity(0, self._cpus)


class SparkEngine:
    """``SparkBingoEngine`` on a local[N] session, N = min(4, nproc)
    partitions. Jobs are tagged with job groups so the trace can count
    them."""

    def __init__(self, wl: Workload, seed: int) -> None:
        self.wl = wl
        self.seed = seed
        self.n = min(4, os.cpu_count() or 1)
        self.master = f"local[{self.n}]"
        self.cpu = "none"
        self.engine = None
        t0 = time.perf_counter()
        self.spark = self._start()
        self.session_s = time.perf_counter() - t0

    def _start(self):
        from pyspark.sql import SparkSession

        tmp = OUT / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        os.environ.pop("PYSPARK_SUBMIT_ARGS", None)
        os.environ["SPARK_LOCAL_DIRS"] = str(OUT / "spark-local")
        spark = (
            SparkSession.builder.master(self.master).appName("perfbench")
            .config("spark.driver.memory", "2g")
            .config("spark.driver.host", "127.0.0.1")
            .config("spark.driver.extraJavaOptions", f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData")
            .config("spark.ui.enabled", "false")
            .config("spark.ui.showConsoleProgress", "false")
            .config("spark.sql.shuffle.partitions", str(self.n))
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.executorEnv.PYTHONPATH", os.environ["PYTHONPATH"])
            .getOrCreate()
        )
        spark.sparkContext.setLogLevel("ERROR")
        return spark

    def reset(self) -> None:
        self.engine = None

    def build(self, initial) -> None:
        from repro.spark import SparkBingoEngine

        self.engine = SparkBingoEngine(self.spark, initial, n_parts=self.n)

    def update(self, batch, r: int) -> None:
        self.spark.sparkContext.setJobGroup(f"update-{r}", "perfbench update")
        self.engine.apply_updates(batch)

    def walk(self, rng, r: int):
        self.spark.sparkContext.setJobGroup(f"walk-{r}", "perfbench walk")
        starts = rng.choice(self.engine.vertices(), self.wl.walkers, replace=False)
        return self.engine.walk(starts=starts, length=self.wl.length,
                                seed=self.seed * 1000 + r)

    def transitions(self, seg):
        import checks

        src, dst, gaps = checks.segment_transitions(seg)
        return int((seg["step"] > 0).sum()), src, dst, gaps

    def first_hops(self, rng, hub: int):
        seg = self.engine.walk(starts=np.full(SPARK_HOP_DRAWS, hub), length=1,
                               seed=self.seed * 1000 + 999)
        return seg.loc[seg["step"] == 1, "vertex"].to_numpy()

    def edges(self):
        return self.engine.edges()

    def memory_bytes(self) -> int:
        return sum(self.engine.memory_bytes())

    def begin_traced_round(self) -> None:
        pass

    def end_traced_round(self, r: int, src, dst) -> Counter:
        from repro.graphs.partition import partition_of

        def jobs(group: str) -> int:
            return len(self.spark.sparkContext.statusTracker().getJobIdsForGroup(group))

        walk_jobs = jobs(f"walk-{r}")
        return Counter(
            walk_jobs=walk_jobs, jobs=jobs(f"update-{r}") + walk_jobs,
            cross=int((partition_of(src, self.n) != partition_of(dst, self.n)).sum()),
        )

    def layer_metrics(self, counts: Counter, rounds: int, steps: int) -> dict:
        import pickle

        # Every job ships all pickled partition stores.
        state = sum(len(pickle.dumps(self.engine.store_of(p))) for p in range(self.n))
        return {
            "spark.session_s": self.session_s,
            "spark.jobs": counts["jobs"] / rounds,
            "spark.state_mb": state / 2**20,
            "spark.steps_per_job": steps / max(counts["walk_jobs"], 1),
            "spark.cross_partition_frac": counts["cross"] / max(steps, 1),
        }

    def group_census(self) -> Counter:
        hist = Counter()
        for pid in range(self.n):
            hist.update(self.engine.store_of(pid).group_kind_histogram())
        return hist

    def close(self) -> None:
        """Stop the session, then the JVM it started, and wait for it."""
        from pyspark import SparkContext

        self.spark.stop()
        gateway = SparkContext._gateway
        if gateway is None:
            return
        proc = getattr(gateway, "proc", None)
        gateway.shutdown()
        SparkContext._gateway = None
        SparkContext._jvm = None
        if proc is not None:
            proc.stdin.close()  # the gateway JVM exits on stdin EOF
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


# -- the run ------------------------------------------------------------------


def update_schedule(batches):
    """The planned batches, then their inverses in reverse order, which
    bring the graph back to its initial edges, over and over: a run can
    measure any number of rounds at a steady graph size. Each edge is in
    at most one planned event, so every inverse event is valid."""
    undo = []
    for b in reversed(batches):
        inv = b.iloc[::-1].reset_index(drop=True)
        inv["op"] = -inv["op"]
        undo.append(inv)
    return itertools.cycle(batches + undo)


def play_rounds(eng, wl: Workload, plan, rng, seconds: float, oracle, tracer):
    """The closed loop: per round, apply one batch, then run one app;
    only those two calls are timed. With a tracer, every second round is
    traced. Returns (rounds, failed operations, non-edge transitions,
    transitions, counts of traced rounds)."""
    rounds, failed, non_edges, transitions, counts = [], 0, 0, 0, Counter()
    begin = time.perf_counter()
    for r, batch in enumerate(update_schedule(plan.batches)):
        if r >= (2 if tracer else 1) and time.perf_counter() - begin >= seconds:
            break
        traced = tracer is not None and r % 2 == 1
        span = tracer.span if traced else (lambda _: contextlib.nullcontext())
        if traced:
            eng.begin_traced_round()
        res = None
        with contextlib.ExitStack() as stack:
            if traced:
                stack.enter_context(tracer.installed())
            stack.enter_context(span("round"))
            t0 = time.perf_counter()
            with span("update"):
                try:
                    eng.update(batch, r)
                except Exception:
                    failed += len(batch)
                    traceback.print_exc()
            t1 = time.perf_counter()
            with span("app"):
                try:
                    res = eng.walk(rng, r)
                except Exception:
                    failed += wl.walkers
                    traceback.print_exc()
            t2 = time.perf_counter()
        oracle.apply(batch)
        steps = 0
        if res is not None:
            steps, src, dst, gaps = eng.transitions(res)
            non_edges += oracle.non_edges(src, dst) + gaps
            transitions += len(src)
            if traced:
                counts += eng.end_traced_round(r, src, dst)
        rounds.append({"update_s": t1 - t0, "app_s": t2 - t1, "batch": batch,
                       "walkers": wl.walkers, "steps": steps, "traced": traced})
    return rounds, failed, non_edges, transitions, counts


def run(wl: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Run one workload; returns (result object, report lines)."""
    import checks
    import layers
    from repro.graphs.updates import apply_updates, make_update_plan
    from repro.synth_data import graph_edges

    edges = graph_edges(wl.graph, seed=GRAPH_SEED)
    plan = make_update_plan(edges, batch_size=wl.batch_size, n_batches=ROUNDS,
                            mode=UPDATE_MODE, seed=seed)
    eng = SparkEngine(wl, seed) if wl.app == "spark" else LocalEngine(wl)
    try:
        env = environment(seed, eng.master, eng.cpu)
        lines = ["env " + " ".join(f"{k}={v}" for k, v in env.items())]
        tracer = layers.Tracer() if trace else None
        setup_times = []
        if trace:
            tracemalloc.start()
            with tracer.installed(), tracer.span("setup"):
                eng.build(plan.initial)
            traced_peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
        else:
            for _ in range(wl.setup_reps):
                eng.reset()  # free the previous build outside the timing
                gc.collect()
                t0 = time.perf_counter()
                eng.build(plan.initial)
                setup_times.append(time.perf_counter() - t0)

        oracle = checks.EdgeOracle(plan.initial)
        rng = np.random.default_rng(seed)
        rounds, failed, non_edges, transitions, counts = play_rounds(
            eng, wl, plan, rng, seconds, oracle, tracer)

        done = len(rounds)
        want = apply_updates(plan.initial, [x["batch"] for x in rounds])
        edges_ok = checks.same_edges(eng.edges(), want)
        hub, dsts, biases = checks.hub_of(want)
        pvalue = checks.first_hop_pvalue(eng.first_hops(rng, hub), dsts, biases)
        correct = edges_ok and non_edges == 0 and pvalue >= MIN_PVALUE and failed == 0
        lines += [
            f"check final edges == apply_updates(initial, {done} batches): "
            f"{'ok' if edges_ok else 'FAILED'}",
            f"check walk transitions that are not edges of their round's graph: "
            f"{non_edges} of {transitions}",
            f"check first hops of hub {hub} (out-degree {len(dsts)}) vs Eq. 2: "
            f"chi-square p = {pvalue:.3g} (need >= {MIN_PVALUE:g})",
        ]

        plain = [x for x in rounds if not x["traced"]]
        round_s = [x["update_s"] + x["app_s"] for x in plain]
        if trace:
            traced = [x for x in rounds if x["traced"]]
            steps = sum(x["steps"] for x in traced)
            metrics = dict.fromkeys(PER_LAYER, 0.0)
            span_metrics, self_s = layers.layer_metrics(tracer, len(traced), steps)
            metrics.update(span_metrics)
            metrics["core.build.traced_peak_mb"] = traced_peak_mb
            metrics.update(eng.layer_metrics(counts, len(traced), steps))
            census = eng.group_census()
            for kind in ("dense", "regular", "sparse", "one_element"):
                metrics[f"core.groups.{kind}"] = census.get(kind, 0)
            untraced = statistics.median(round_s)
            traced_round = statistics.median(x["update_s"] + x["app_s"] for x in traced)
            metrics["trace.overhead_frac"] = traced_round / untraced - 1.0
            units = PER_LAYER
            lines += trace_report(wl, metrics, self_s, len(traced), untraced, traced_round)
            OUT.mkdir(exist_ok=True)
            path = OUT / f"spans-{wl.name}-seed{seed}.npz"
            tracer.save(path, {"workload": wl.name, **env})
            lines.append(f"spans: {len(tracer.start)} written to {path}")
            lines += [f"{k:<40}{metrics[k]:.6g} {PER_LAYER[k]}" for k in PER_LAYER]
        else:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "round_s_p50": statistics.median(round_s),
                "update_events_per_s": sum(len(x["batch"]) for x in plain)
                / sum(x["update_s"] for x in plain),
                "walk_steps_per_s": sum(x["steps"] for x in plain)
                / sum(x["app_s"] for x in plain),
                "memory_mb": eng.memory_bytes() / 2**20,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
            lines += [
                f"setup_s             {metrics['setup_s']:.4f} s  "
                f"(median of {len(setup_times)} builds)",
                f"round_s_p50         {metrics['round_s_p50']:.4f} s  "
                f"(median of {len(round_s)} rounds of update + app; "
                f"rounds: {' '.join(f'{x:.3f}' for x in round_s)})",
            ]
            lines += [f"{k:<20}{metrics[k]:.4f} {units[k]}"
                      for k in ("update_events_per_s", "walk_steps_per_s", "memory_mb")]
            lines.append(f"peak_rss_mb         {metrics['peak_rss_mb']:.4f} MB  "
                         f"(ru_maxrss of the benchmark process"
                         f"{'; the Spark driver only' if wl.app == 'spark' else ''})")
        attempted = sum(len(x["batch"]) + x["walkers"] for x in rounds)
        lines.append(f"failed_frac         {failed / attempted:.4f} ratio  "
                     f"({failed} of {attempted} update events and walk requests)")
        result = {
            "correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
        }
        return result, lines
    finally:
        eng.close()


def trace_report(wl, m, self_s, n_traced, untraced, traced_round) -> list[str]:
    lines = [
        f"round split over {n_traced} traced rounds: update {m['split.update_frac']:.1%}, "
        f"app {m['split.app_frac']:.1%}, other {m['split.other_frac']:.1%}"
    ]
    if wl.name in PREDICTED_SHARES:
        part, share = PREDICTED_SHARES[wl.name]
        got = m[f"split.{part}_frac"]
        lines.append(f"prediction {part} >= {share:.0%} of a round on {wl.name}: "
                     f"{'holds' if got >= share else 'DOES NOT HOLD'} ({got:.1%})")
    lines.append(f"self seconds per traced round (sum {sum(self_s.values()):.4f} of "
                 f"{m['trace.round_s']:.4f} s traced round):")
    for label, s in sorted(self_s.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {label:<30}{s:.4f}")
    lines.append(f"tracing overhead: traced round p50 {traced_round:.4f} s vs untraced "
                 f"{untraced:.4f} s ({m['trace.overhead_frac']:+.1%})")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not use_checkout_src():
        print(f"perfbench: no program at {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(OUT / "tmp")
    (OUT / "tmp").mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload]
    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}", flush=True)
    result, lines = run(wl, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
