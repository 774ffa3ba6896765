"""The benchmark workloads: input generation, the timed CLI calls, and output checks.

Every workload drives the public CLI (`multisource.cli.main`, called in
process) from one closed-loop client: the next call starts when the previous
one returns. Inputs are pure functions of the seed; iteration k uses input
variant k % VARIANTS so a run covers several inputs of the same shape.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from multisource.data import Dataset
from multisource.discrepancy import empirical_discrepancy
from multisource.harness import build_pool, config_from_json

from oracle import exact_discrepancy

VARIANTS = 4
SIMPLEX_SLACK = 1e-9
CASE2_TOLERANCE = 1e-6  # what acceptance check c09 asks of case 2


def derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence([int(p) & (2**63 - 1) for p in parts])
               .generate_state(1)[0])


def run_cli(argv: list[str]) -> tuple[float, str]:
    """Time one in-process CLI call; raise if it reports failure."""
    main = sys.modules["multisource.cli"].main  # looked up per call: tracing patches it
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"multisource {argv[0]} exited with {code}")
    return elapsed, out.getvalue()


@dataclass
class Sample:
    """One iteration: its CLI time, the work it did, and its output checks.

    Each call is followed by a calibration bracket of `clock` (see
    measure.Clock), and `norm_s` accumulates the call times rescaled to
    reference machine speed.
    """

    clock: object
    wall_s: float = 0.0  # raw seconds in CLI calls
    norm_s: float = 0.0  # normalized seconds in CLI calls
    work: float = 0.0  # the workload's unit of work (see `work_unit`)
    work_s: float = 0.0  # normalized time of the calls that did `work`
    extra: dict = field(default_factory=dict)  # workload-specific rates, normalized
    checks: list[tuple[str, bool]] = field(default_factory=list)

    def call(self, argv: list[str]) -> tuple[str, float]:
        """stdout and normalized seconds of one CLI call."""
        elapsed, stdout = run_cli(argv)
        norm = elapsed * self.clock.scale()
        self.wall_s += elapsed
        self.norm_s += norm
        return stdout, norm

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))


def on_simplex(alpha) -> bool:
    a = np.asarray(alpha, dtype=float)
    return bool(np.all(np.isfinite(a)) and np.all(a >= -SIMPLEX_SLACK)
                and abs(a.sum() - 1.0) <= SIMPLEX_SLACK)


def two_class_cloud(rng: np.random.Generator, n: int, d: int, separation: float,
                    positive_fraction: float) -> tuple[np.ndarray, np.ndarray]:
    labels = np.where(rng.random(n) < positive_fraction, 1.0, -1.0)
    features = rng.standard_normal((n, d))
    features[:, 0] += labels * (separation / 2.0)
    return features, labels


def write_csv(path: Path, features: np.ndarray, labels: np.ndarray) -> None:
    """The benchmark's own writer (17 significant digits, signed labels)."""
    header = ",".join([f"f{j}" for j in range(features.shape[1])] + ["label"])
    np.savetxt(path, np.column_stack([features, labels]), fmt="%.17g", delimiter=",",
               header=header, comments="")


def read_csv(path: Path) -> np.ndarray:
    """The benchmark's own reader: the table without its header row."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class Workload:
    """Interface: `prepare` writes a seed's inputs into a directory (it is
    what `setup_s` times), `iterate(k, clock)` runs and checks iteration k."""

    name: str
    work_unit: str

    def prepare(self, work: Path, seed: int) -> None:
        raise NotImplementedError

    def iterate(self, k: int, clock) -> Sample:
        raise NotImplementedError

    def quality(self) -> dict:
        """Quality figures that repeat exactly per seed, for the report."""
        return {}


class Sweep(Workload):
    """`multisource experiment` on one config shape, one repeat per iteration."""

    work_unit = "result rows"

    def __init__(self, name: str, config: dict):
        self.name = name
        self.config = config

    def prepare(self, work: Path, seed: int) -> None:
        self.work = work
        self.paths = []
        for j in range(VARIANTS):
            cfg = dict(self.config, seed=derive_seed(seed, j))
            path = work / f"{self.name}-{j}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            self.paths.append(path)
        self.first_bytes: dict[int, bytes] = {}
        self.test_error: dict[int, float] = {}

    def iterate(self, k: int, clock) -> Sample:
        j = k % VARIANTS
        out = self.work / f"{self.name}-{j}.csv"
        s = Sample(clock)
        _, s.work_s = s.call(["experiment", "--config", str(self.paths[j]), "--out", str(out)])
        s.work = self.rows()
        s.extra["runs_per_s"] = s.work / s.work_s
        results = out.read_bytes()
        if j in self.first_bytes:
            s.check("rerun reproduces results.csv", results == self.first_bytes[j])
            return s
        self.first_bytes[j] = results
        self.check_outputs(s, out, j)
        return s

    def rows(self) -> int:
        c = self.config
        return c["repeats"] * len(c["corruption"]["n_corrupted"]) * len(c["method"])

    def check_outputs(self, s: Sample, out: Path, j: int) -> None:
        c = self.config
        with out.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        s.check("row count = repeats x |n grid| x |methods|", len(rows) == self.rows())
        lambdas, ridges = set(c["lambda_grid"]), set(c["ridge_grid"])
        ours = [r for r in rows if r["method"] == "ours"]
        s.check("selected lambda in grid",
                all(float(r["selected_lambda"]) in lambdas for r in ours))
        s.check("selected ridge in grid", all(float(r["selected_ridge"]) in ridges for r in rows))
        errors = [float(r["test_error"]) for r in ours]
        s.check("test errors in [0, 1]", all(0.0 <= e <= 1.0 for e in errors))
        sidecar = json.loads(out.with_suffix(".sidecar.json").read_text(encoding="utf-8"))
        weighted = [r for r in sidecar if r["method"] == "ours"]
        s.check("one sidecar row per result row", len(sidecar) == len(rows))
        s.check("sidecar alpha on the simplex", all(on_simplex(r["alpha"]) for r in weighted))
        s.check("reference discrepancy is 0", all(r["discrepancies"][-1] == 0.0 for r in weighted))
        self.test_error[j] = sum(errors) / len(errors)

    def quality(self) -> dict:
        """Mean `ours` test error over the input variants run; repeats exactly per seed."""
        if len(self.test_error) < VARIANTS:
            return {}
        return {"ours_test_error": sum(self.test_error.values()) / VARIANTS}


C07 = Sweep("c07_sweep", {
    "data": {"synthetic": {"n_sources": 20, "samples_per_source": 100, "reference_size": 100,
                           "test_size": 2000, "n_features": 2, "class_separation": 3.0,
                           "positive_fraction": 0.75}},
    "method": ["ours", "all_data", "reference_only", "median_of_probs"],
    "lambda_grid": [0.01, 1.0, 100.0],
    "ridge_grid": [0.01],
    "cv_folds": 5,
    "repeats": 1,
    "corruption": {"kind": "shuffled_labels", "n_corrupted": [0, 10, 19], "proportion": 1.0},
})

FULL_GRID = Sweep("full_grid", {
    "data": {"synthetic": {"n_sources": 10, "samples_per_source": 200, "reference_size": 100,
                           "test_size": 2000, "n_features": 10, "class_separation": 3.0,
                           "positive_fraction": 0.75}},
    "method": ["ours", "all_data", "robust_loss", "batch_norm", "geometric_median"],
    "lambda_grid": [0.0, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0],
    "ridge_grid": [1e-4, 1e-3, 1e-2, 1e-1],
    "cv_folds": 5,
    "repeats": 1,
    "corruption": {"kind": "shuffled_features", "n_corrupted": [5], "proportion": 0.5},
})


class CsvScore(Workload):
    """File-based scoring with writes beside reads: corrupt half of the
    source CSVs, score every source against the reference, solve the simplex
    weights for the scores, and train a robust baseline on the files."""

    name = "csv_score"
    work_unit = "CSV rows read plus written"
    n_files, rows, ref_rows, test_rows, d = 8, 5000, 2000, 2000, 10
    lam = 1.0
    method, ridge = "geometric_median", 0.01

    def prepare(self, work: Path, seed: int) -> None:
        self.work = work
        rng = np.random.default_rng(seed)
        self.sources = [two_class_cloud(rng, self.rows, self.d, 3.0, 0.75)
                        for _ in range(self.n_files)]
        self.src_paths = [work / f"source_{i}.csv" for i in range(self.n_files)]
        for path, (x, y) in zip(self.src_paths, self.sources):
            write_csv(path, x, y)
        self.ref_path, self.test_path = work / "reference.csv", work / "test.csv"
        write_csv(self.ref_path, *two_class_cloud(rng, self.ref_rows, self.d, 3.0, 0.75))
        write_csv(self.test_path, *two_class_cloud(rng, self.test_rows, self.d, 3.0, 0.75))
        half = self.n_files // 2
        self.corrupted = [work / f"corrupted_{i}.csv" for i in range(half)]
        self.scored = self.corrupted + self.src_paths[half:]
        self.corrupt_seed = derive_seed(seed, 1)
        self.train_config = work / "train.json"
        self.train_config.write_text(json.dumps({
            "data": {"csv_paths": {"source_paths": [str(p) for p in self.scored],
                                   "reference_path": str(self.ref_path),
                                   "test_path": str(self.test_path)}},
            "method": self.method, "ridge_grid": [self.ridge], "seed": derive_seed(seed, 2),
        }), encoding="utf-8")
        self.digests: list[str] | None = None

    def iterate(self, k: int, clock) -> Sample:
        s = Sample(clock)
        for src, dst in zip(self.src_paths, self.corrupted):
            s.call(["corrupt", "--input", str(src), "--output", str(dst),
                    "--kind", "shuffled_labels", "--proportion", "0.5",
                    "--seed", str(self.corrupt_seed)])
        text, score_s = s.call(["discrepancy", *map(str, self.scored),
                                "--reference", str(self.ref_path)])
        report = json.loads(text)
        weights_in = self.work / "scores.json"
        weights_in.write_text(json.dumps({
            "discrepancies": [r["discrepancy"] for r in report],
            "sample_counts": [r["samples"] for r in report]}), encoding="utf-8")
        alpha = json.loads(s.call(["weights", str(weights_in), "--lambda", str(self.lam)])[0])
        trained = json.loads(s.call(["train", "--method", self.method,
                                     "--config", str(self.train_config)])[0])

        half = len(self.corrupted)
        read_per_pass = self.n_files * self.rows + self.ref_rows
        s.work = half * 2 * self.rows + read_per_pass + read_per_pass + self.test_rows
        s.work_s = s.norm_s
        s.extra["csv_rows_per_s"] = s.work / s.work_s
        s.extra["sources_scored_per_s"] = self.n_files / score_s
        self.check_scores(s, report, alpha["alpha"], trained)
        digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in self.corrupted]
        if self.digests is None:
            self.digests = digests
            self.check_corrupted(s)
            self.check_against_library(s, report)
        else:
            s.check("corrupt output repeats exactly", digests == self.digests)
        return s

    def check_scores(self, s: Sample, report: list, alpha: list, trained: dict) -> None:
        s.check("one discrepancy entry per file",
                [r["source"] for r in report] == [str(p) for p in self.scored])
        s.check("discrepancy samples match the files",
                all(r["samples"] == self.rows for r in report))
        s.check("weights on the simplex, one per file",
                len(alpha) == self.n_files and on_simplex(alpha))
        s.check("trained baseline reports its method and grid ridge",
                trained["method"] == self.method and trained["selected_ridge"] == self.ridge)
        s.check("test error in [0, 1]", 0.0 <= trained["test_error"] <= 1.0)

    def check_corrupted(self, s: Sample) -> None:
        for path, (x, y) in zip(self.corrupted, self.sources):
            table = read_csv(path)
            s.check("corrupt keeps the row count", table.shape == (self.rows, self.d + 1))
            if table.shape != (self.rows, self.d + 1):
                continue
            s.check("shuffled_labels keeps the feature columns",
                    np.array_equal(table[:, :-1], x))
            s.check("shuffled_labels permutes labels",
                    np.array_equal(np.sort(table[:, -1]), np.sort(y)))

    def check_against_library(self, s: Sample, report: list) -> None:
        """The CLI's score of each file equals `empirical_discrepancy` called
        in process on the rows of the same files."""
        ref = read_csv(self.ref_path)
        reference = Dataset(ref[:, :-1], ref[:, -1])
        for path, entry in zip(self.scored, report):
            table = read_csv(path)
            value = empirical_discrepancy(Dataset(table[:, :-1], table[:, -1]), reference).value
            s.check("CLI discrepancy equals in-process empirical_discrepancy",
                    entry["discrepancy"] == value)


class Federated(Workload):
    """Case-1 then case-2 protocol simulation on one synthetic pool."""

    name = "federated"
    work_unit = "case-2 source-rounds"
    n_sources, m, ref, d = 10, 500, 200, 10
    rounds = 1000
    bytes_per_real = 8

    def prepare(self, work: Path, seed: int) -> None:
        self.paths = []
        for j in range(VARIANTS):
            cfg = {"data": {"synthetic": {
                "n_sources": self.n_sources, "samples_per_source": self.m,
                "reference_size": self.ref, "test_size": 10, "n_features": self.d,
                "class_separation": 3.0, "positive_fraction": 0.75}},
                "method": "ours", "seed": derive_seed(seed, j)}
            path = work / f"federated-{j}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            self.paths.append(path)
        self.expected: dict[int, tuple[list[float], list[float]]] = {}

    def expected_values(self, j: int) -> tuple[list[float], list[float]]:
        """Central `empirical_discrepancy` values and exact relaxations for
        variant j, computed once outside the timed calls."""
        if j not in self.expected:
            config = config_from_json(self.paths[j].read_text(encoding="utf-8"))
            pool, _ = build_pool(config, config.seed)
            ref = pool.reference
            self.expected[j] = (
                [empirical_discrepancy(src, ref).value for src in pool.sources],
                [exact_discrepancy(src.features, src.labels, ref.features, ref.labels)
                 for src in pool.sources])
        return self.expected[j]

    def iterate(self, k: int, clock) -> Sample:
        j = k % VARIANTS
        s = Sample(clock)
        case1 = json.loads(s.call(["simulate-federated", "--case", "1",
                                   "--config", str(self.paths[j])])[0])
        text, s.work_s = s.call(["simulate-federated", "--case", "2", "--config",
                                 str(self.paths[j]), "--rounds", str(self.rounds)])
        case2 = json.loads(text)
        s.work = self.n_sources * self.rounds
        s.extra["case2_rounds_per_s"] = s.work / s.work_s
        self.check_traces(s, case1, case2, j)
        return s

    def check_traces(self, s: Sample, case1: dict, case2: dict, j: int) -> None:
        n, d, r, b = self.n_sources, self.d, self.rounds, self.bytes_per_real
        central, exact = self.expected_values(j)
        s.check("case 1 bit-identical to central empirical_discrepancy",
                case1["discrepancies"] == central)
        s.check("case 1 messages = 2N", case1["messages"] == 2 * n)
        s.check("case 1 bytes = N*8*m_ref*(d+1) + N*8",
                case1["total_bytes"] == n * b * self.ref * (d + 1) + n * b)
        s.check("case 2 messages = N(2R+2)", case2["messages"] == n * (2 * r + 2))
        s.check("case 2 bytes = N(2R*8(d+1) + 8(d+2) + 8)",
                case2["total_bytes"] == n * (2 * r * b * (d + 1) + b * (d + 2) + b))
        s.check("case 2 rounds = R+1", case2["rounds"] == r + 1)
        s.check("case 2 within 1e-6 of the exact relaxation",
                len(case2["discrepancies"]) == n and all(
                    abs(v - e) <= CASE2_TOLERANCE for v, e in zip(case2["discrepancies"], exact)))


WORKLOADS = {w.name: w for w in (C07, FULL_GRID, CsvScore(), Federated())}
