"""The three benchmark workloads and the checks on their outputs.

A workload turns the benchmark seed into inputs, drives dmres through
its CLI (``dmres.cli.main``, in process) or its public API with one
worker, and checks every output against an oracle.  Program functions
are always looked up as module attributes at call time, so a traced pass
reaches the wrappers installed by ``layers.Tracer``.

Each pass gets inputs of its own (program seed, states, strengths), so a
cache kept across passes in one process cannot serve a later pass.

Per pass:
  ``prepare(i)``  untimed: generate the pass's inputs (arrays, state files)
  ``steps(ctx)``  the program calls, as steps that are timed one by one
  ``check(ctx, checks)`` untimed: verify outputs, record digests, return items
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

import dmres
import dmres.cli
import dmres.linalg
import dmres.precision
import dmres.res
import dmres.sampling
import dmres.seq
import dmres.shots


class Checks:
    """Counts checks attempted and failed; keeps the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.digests: list[dict] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok

    def count(self, n_ok: int, n_total: int, what: str) -> None:
        """Record ``n_total`` element-wise checks of which ``n_ok`` passed."""
        n_ok, n_total = int(n_ok), int(n_total)
        self.attempted += n_total
        self.failed += n_total - n_ok
        if n_ok != n_total and len(self.messages) < 20:
            self.messages.append(f"{what}: {n_total - n_ok} of {n_total} failed")

    def digest_outputs(self, directory: Path, pass_index: int) -> None:
        """SHA-256 of every CSV, manifest and state file the program wrote."""
        for path in sorted(p for p in directory.rglob("*") if p.is_file()):
            if path.suffix in (".csv", ".json", ".state") and path.parent != directory:
                self.digests.append({
                    "pass": pass_index,
                    "file": path.relative_to(directory).as_posix(),
                    "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
                })


def quiet_cli(argv: list[str]) -> int:
    """Run the in-process CLI with its progress lines discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return dmres.cli.main(argv)


def wishart_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Full-rank random density matrix, exactly Hermitian."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = z @ z.conj().T
    m = m / np.trace(m).real
    return 0.5 * (m + m.conj().T)


def write_state_file(path: Path, dims, matrix: np.ndarray) -> None:
    """State file in the documented format, written without dmres."""
    data = [[[repr(float(z.real)), repr(float(z.imag))] for z in row] for row in matrix]
    rows = ", ".join("[" + ", ".join(f"[{re}, {im}]" for re, im in row) + "]" for row in data)
    path.write_text(f'{{"dims": {list(dims)}, "kind": "density", "data": [{rows}]}}\n')


def read_state_matrix(path: Path) -> np.ndarray:
    """Matrix of a density state file, parsed without dmres."""
    arr = np.asarray(json.loads(path.read_text())["data"], dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def pass_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


class Workload:
    """Shared pass plumbing; subclasses add sizes, setup, prepare, steps, check."""

    name = ""
    min_passes = 3

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.work = root / ".bench_run" / self.name
        self.work.mkdir(parents=True, exist_ok=True)

    def rel(self, path: Path) -> str:
        return path.relative_to(self.root).as_posix()

    def pass_dir(self, index: int) -> Path:
        d = self.work / f"p{index}"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        return d

    def finish(self, checks: Checks) -> None:
        """Checks that pool every pass of the run."""

    def cleanup(self, ctx: dict) -> None:
        shutil.rmtree(ctx["dir"], ignore_errors=True)

    def layer_extras(self) -> dict:
        """Per-layer values the checks compute from outputs."""
        return {"precision.mc_gap_se": (0.0, "se")}


class Fig4Sweep(Workload):
    """Both fig4 precision panels through ``dmres scenario``."""

    name = "fig4-sweep"
    SAMPLES = 100
    PANELS = (("fig4a", "qutrit", (1, 3)), ("fig4b", "two-qubit", (2, 2)))
    GAP_SE = 5.0  # MC mean within this many standard errors of the exact mean

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self._exact: dict = {}
        self.gaps_se: list[float] = []

    def sizes(self) -> dict:
        return {"panels": [p for p, _, _ in self.PANELS], "samples": self.SAMPLES,
                "g_grid": "default (33 points)", "schemes": ["res", "seq"],
                "policies": ["per-setting-unit-time", "split-total"], "workers": 1}

    def setup(self) -> None:
        out = self.work / "warmup"
        for _, system, _ in self.PANELS:
            quiet_cli(["precision", "--system", system, "--scheme", "res,seq",
                       "--g-grid", "0.5,0.9", "--samples", "100", "--seed", str(self.seed),
                       "--workers", "1", "--out", self.rel(out / f"{system}.csv")])
        shutil.rmtree(out, ignore_errors=True)

    def prepare(self, index: int) -> dict:
        return {"index": index, "dir": self.pass_dir(index), "seed": pass_seed(self.seed, index)}

    def steps(self, ctx: dict) -> list:
        ctx["rc"] = {}
        return [functools.partial(self._panel, ctx, panel) for panel, _, _ in self.PANELS]

    def _panel(self, ctx: dict, panel: str) -> None:
        ctx["rc"][panel] = quiet_cli([
            "scenario", panel, "--out", self.rel(ctx["dir"]), "--samples", str(self.SAMPLES),
            "--seed", str(ctx["seed"]), "--workers", "1"])

    def exact_mean(self, n_qudits: int, d: int, scheme: str, g: float) -> tuple[float, int]:
        """Exact Haar mean Tr(W)/D at unit exposure, and the setting count.

        Both state families are invariant under local Haar twirls, so
        E[rho] = 1/D and the mean of Tr(W rho) is Tr(W)/D, with
        Tr(W) = sum_o (c_re^2 + c_im^2)/2 |a_o|^2 averaged over the
        element set.  Computed from plan fields, not from dmres.precision.
        """
        key = (n_qudits, d, scheme, g)
        if key not in self._exact:
            builder = dmres.res.plan_res if scheme == "res" else dmres.seq.plan_seq
            total, settings = 0.0, 0
            elements = dmres.precision_element_set(n_qudits, d)
            for element in elements:
                plan = builder(element, g)
                settings = plan.n_settings
                for i, a in enumerate(plan.amplitudes):
                    norms = np.sum(np.abs(a) ** 2, axis=1)
                    total += 0.5 * float(np.sum((plan.coeff_re[i] ** 2 + plan.coeff_im[i] ** 2) * norms))
            self._exact[key] = (total / len(elements) / d ** n_qudits, settings)
        return self._exact[key]

    def check(self, ctx: dict, checks: Checks) -> int:
        if not self._exact:
            # Closed-form anchor for the oracle: qutrit res at pi/4 gives 1/6.
            anchor, _ = self.exact_mean(1, 3, "res", math.pi / 4)
            checks.record(abs(anchor - 1.0 / 6.0) < 1e-12, f"exact-mean anchor {anchor!r} != 1/6")
        items = 0
        for panel, _, (n_qudits, d) in self.PANELS:
            if not checks.record(ctx["rc"][panel] == 0, f"{panel}: exit code {ctx['rc'][panel]}"):
                continue
            out = ctx["dir"] / panel
            items += self._check_curves(out / f"{panel}_curves.csv", n_qudits, d, panel, checks)
            self._check_histograms(out / f"{panel}_histograms.csv", panel, checks)
            self._check_manifest(out / "manifest.json", panel, checks)
        checks.digest_outputs(ctx["dir"], ctx["index"])
        return items

    def _check_curves(self, path, n_qudits, d, panel, checks) -> int:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        ok = 0
        best: dict = {}
        for r in rows:
            g, mean, se = float(r["g"]), float(r["nt_delta2"]), float(r["mc_stderr"])
            exact, settings = self.exact_mean(n_qudits, d, r["scheme"], g)
            if r["policy"] == "split-total":
                exact *= settings
            gap = abs(mean - exact)
            good = (math.isfinite(mean) and math.isfinite(se) and mean > 0 and se >= 0
                    and int(r["samples"]) == self.SAMPLES
                    and gap <= self.GAP_SE * se + 1e-9 * exact)
            ok += good
            if se > 1e-9 * exact:
                self.gaps_se.append(gap / se)
            key = (r["scheme"], r["policy"])
            if key not in best or mean < best[key][0]:
                best[key] = (mean, r["argmin"])
        checks.count(ok, len(rows), f"{panel} curve points vs exact Haar mean")
        marks = {}
        for r in rows:
            marks.setdefault((r["scheme"], r["policy"]), []).append(r["argmin"])
        checks.record(len(marks) == 4 and all(m.count("1") == 1 for m in marks.values())
                      and all(b[1] == "1" for b in best.values()),
                      f"{panel}: argmin marks do not single out each curve's minimum")
        points = {(r["scheme"], r["g"]) for r in rows}
        return len(points) * self.SAMPLES

    def _check_histograms(self, path, panel, checks) -> None:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        per_scheme: dict = {}
        for r in rows:
            per_scheme[r["scheme"]] = per_scheme.get(r["scheme"], 0) + int(r["count"])
        expected = max(self.SAMPLES, 1000)
        checks.record(sorted(per_scheme) == ["res", "seq"]
                      and all(v == expected for v in per_scheme.values())
                      and all(math.isfinite(float(r["bin_left"])) for r in rows),
                      f"{panel}: histogram counts {per_scheme} != {expected} per scheme")

    def _check_manifest(self, path, panel, checks) -> None:
        doc = json.loads(path.read_text())
        values = [p["nt_delta2"] for s in doc["comparison"]["schemes"].values()
                  for p in s["policies"].values()]
        ratio = float(doc["efficiency"]["ratio_seq_over_res"])
        checks.record(len(values) == 4 and all(math.isfinite(v) and v > 0 for v in values)
                      and math.isfinite(ratio) and ratio > 0,
                      f"{panel}: manifest comparison/efficiency values not finite")

    def layer_extras(self) -> dict:
        return {"precision.mc_gap_se": (max(self.gaps_se, default=0.0), "se")}


class FullCharacterize(Workload):
    """Every element of (3,3) and (2,2,2) mixed states, res via CLI, seq via API."""

    name = "full-characterize"
    DIMS = ((3, 3), (2, 2, 2))
    G_RANGE = (0.4, 1.2)
    N_T = 1e6
    SHOT_SE = 5.0
    RES_TOL = 1e-10
    SEQ_TOL = 1e-8

    def sizes(self) -> dict:
        return {"dims": [list(d) for d in self.DIMS], "g_range": list(self.G_RANGE),
                "shots_n_t": self.N_T, "runs_per_state": ["res cli --truth",
                                                          "res cli --truth --shots",
                                                          "seq characterize api"]}

    def setup(self) -> None:
        # Warm up at the largest joint space: the first plan of that size
        # is measurably slower than the ones after it.
        rng = np.random.default_rng([self.seed, 7])
        dims = self.DIMS[-1]
        path = self.work / "warmup.state"
        write_state_file(path, dims, wishart_state(rng, int(np.prod(dims))))
        quiet_cli(["characterize", "--state", self.rel(path), "--g", "0.7",
                   "--out", self.rel(self.work / "warmup"), "--truth", self.rel(path)])
        dmres.seq.plan_seq(dmres.ElementIndex.create(dims, (0,) * len(dims), (1,) * len(dims)), 0.7)
        shutil.rmtree(self.work / "warmup", ignore_errors=True)
        path.unlink()

    def prepare(self, index: int) -> dict:
        rng = np.random.default_rng([self.seed, index])
        d = self.pass_dir(index)
        ctx = {"index": index, "dir": d, "seed": pass_seed(self.seed, index),
               "g": float(rng.uniform(*self.G_RANGE)), "states": []}
        for dims in self.DIMS:
            label = "x".join(map(str, dims))
            m = wishart_state(rng, int(np.prod(dims)))
            path = d / f"in_{label}.state"
            write_state_file(path, dims, m)
            ctx["states"].append((dims, label, m, path))
        return ctx

    def steps(self, ctx: dict) -> list:
        ctx["rc"], ctx["seq"] = {}, {}
        steps = []
        for dims, label, m, path in ctx["states"]:
            base = ["characterize", "--state", self.rel(path), "--g", repr(ctx["g"]),
                    "--truth", self.rel(path)]
            steps.append(functools.partial(
                self._cli, ctx, (label, "exact"),
                base + ["--out", self.rel(ctx["dir"] / f"res_{label}")]))
            steps.append(functools.partial(
                self._cli, ctx, (label, "shots"),
                base + ["--out", self.rel(ctx["dir"] / f"shots_{label}"),
                        "--shots", repr(self.N_T), "--seed", str(ctx["seed"])]))
            steps.append(functools.partial(self._seq, ctx, dims, label, m))
        return steps

    def _cli(self, ctx: dict, key: tuple, argv: list[str]) -> None:
        ctx["rc"][key] = quiet_cli(argv)

    def _seq(self, ctx: dict, dims, label: str, m: np.ndarray) -> None:
        rho = dmres.linalg.DensityMatrix.create(m, dims)
        ctx["seq"][label] = dmres.res.characterize(rho, ctx["g"],
                                                   plan_builder=dmres.seq.plan_seq).entries

    def check(self, ctx: dict, checks: Checks) -> int:
        items = 0
        for dims, label, m, _ in ctx["states"]:
            dim = m.shape[0]
            items += 3 * dim * (dim - 1) // 2
            if checks.record(ctx["rc"][label, "exact"] == 0, f"res {label}: nonzero exit"):
                est = read_state_matrix(ctx["dir"] / f"res_{label}" / "estimate.state")
                checks.count(int(np.sum(np.abs(est - m) <= self.RES_TOL)), m.size,
                             f"res {label} within {self.RES_TOL:g} of truth")
                checks.record(np.array_equal(est, est.conj().T), f"res {label}: not Hermitian")
            if checks.record(ctx["rc"][label, "shots"] == 0, f"shots {label}: nonzero exit"):
                out = ctx["dir"] / f"shots_{label}"
                est = read_state_matrix(out / "estimate.state")
                with open(out / "deviation.csv", newline="") as fh:
                    rows = list(csv.DictReader(fh))
                ok = sum(
                    abs(est[int(r["row"]), int(r["col"])] - m[int(r["row"]), int(r["col"])])
                    <= self.SHOT_SE * float(r["pred_stderr"])
                    for r in rows)
                checks.count(ok if len(rows) == m.size else 0, m.size,
                             f"shots {label} within {self.SHOT_SE:g} predicted stderr")
                checks.record(np.array_equal(est, est.conj().T)
                              and abs(np.trace(est) - 1.0) < 1e-12,
                              f"shots {label}: not Hermitian with unit trace")
            est = ctx["seq"][label]
            checks.count(int(np.sum(np.abs(est - m) <= self.SEQ_TOL)), m.size,
                         f"seq {label} within {self.SEQ_TOL:g} of truth")
            checks.record(np.array_equal(est, est.conj().T), f"seq {label}: not Hermitian")
        checks.digest_outputs(ctx["dir"], ctx["index"])
        return items


class ShotDraws(Workload):
    """Repeated finite-statistics draws from plans built once in set-up."""

    name = "shot-draws"
    DIMS = ((3,), (2, 2), (3, 3))
    G_RANGE = (0.5, 1.2)
    DRAWS = 100  # draws per plan and pass, one keyed stream each
    N_T = 1e6
    MEAN_SE = 5.0
    VAR_SE = 5.0

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.plans: list = []
        self.residuals: dict = {}

    def sizes(self) -> dict:
        return {"plans": [{"scheme": p.scheme, "dims": list(p.element.dims),
                           "element": p.element.label(), "g": p.g} for p in self.plans],
                "draws_per_plan_per_pass": self.DRAWS, "n_t": self.N_T,
                "policies": "per-setting-unit-time on even passes, split-total on odd"}

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 11])
        plans = []
        for dims in self.DIMS:
            # Every qudit coupled, so the per-draw work does not depend on the seed.
            s = tuple(int(rng.integers(d)) for d in dims)
            sp = tuple(int((a + rng.integers(1, d)) % d) for a, d in zip(s, dims))
            element = dmres.ElementIndex.create(dims, s, sp)
            g = float(rng.uniform(*self.G_RANGE))
            plans.append(dmres.res.plan_res(element, g))
            plans.append(dmres.seq.plan_seq(element, g))
        for plan in plans:
            dim = plan.element.dim
            rho = dmres.linalg.DensityMatrix.create(np.eye(dim) / dim, plan.element.dims)
            policy = dmres.shots.ShotPolicy(n_t=self.N_T)
            dmres.shots.element_variance(plan, rho, policy)
            dmres.shots.simulate_shots(plan, rho, policy, dmres.sampling.stream(self.seed, "warmup"))
        self.plans = plans

    def prepare(self, index: int) -> dict:
        rng = np.random.default_rng([self.seed, index])
        allocation = "per-setting-unit-time" if index % 2 == 0 else "split-total"
        return {"index": index, "dir": self.pass_dir(index), "seed": pass_seed(self.seed, index),
                "policy": dmres.shots.ShotPolicy(n_t=self.N_T, allocation=allocation),
                "states": [wishart_state(rng, p.element.dim) for p in self.plans]}

    def steps(self, ctx: dict) -> list:
        return [functools.partial(self._draw, ctx)]

    def _draw(self, ctx: dict) -> None:
        policy = ctx["policy"]
        ctx["variances"], ctx["draws"] = [], []
        for k, (plan, m) in enumerate(zip(self.plans, ctx["states"])):
            rho = dmres.linalg.DensityMatrix.create(m, plan.element.dims)
            ctx["variances"].append(dmres.shots.element_variance(plan, rho, policy))
            tag = f"bench/shots/{k}"
            ctx["draws"].append([
                dmres.shots.simulate_shots(plan, rho, policy,
                                           dmres.sampling.stream(ctx["seed"], tag, j))
                for j in range(self.DRAWS)])

    def check(self, ctx: dict, checks: Checks) -> int:
        for k, plan in enumerate(self.plans):
            truth = ctx["states"][k][plan.element.s_flat, plan.element.s_prime_flat]
            draws = np.asarray(ctx["draws"][k])
            var_re, var_im = ctx["variances"][k]
            for part, t, var, x in (("re", truth.real, var_re, draws.real),
                                    ("im", truth.imag, var_im, draws.imag)):
                sigma = math.sqrt(var / self.N_T)
                if not checks.record(math.isfinite(sigma) and sigma > 0,
                                     f"plan {k} {part}: analytic variance {var!r}"):
                    continue
                z = (x - t) / sigma
                checks.record(abs(z.mean()) * math.sqrt(z.size) <= self.MEAN_SE,
                              f"plan {k} {part}: mean {x.mean()!r} off truth {t!r} "
                              f"by more than {self.MEAN_SE:g} SE")
                self.residuals.setdefault((k, part), []).append(z)
        return len(self.plans) * self.DRAWS

    def finish(self, checks: Checks) -> None:
        """Empirical against analytic variance, pooled over the run's passes."""
        for (k, part), zs in sorted(self.residuals.items()):
            z = np.concatenate(zs)
            ratio = float(np.mean(z ** 2))
            checks.record(abs(ratio - 1.0) <= self.VAR_SE * math.sqrt(2.0 / z.size),
                          f"plan {k} {part}: empirical/analytic variance {ratio:.4f} "
                          f"over {z.size} draws")

    def layer_extras(self) -> dict:
        # The plans are built in set-up, outside the traced passes.
        infos = [p.calibration for p in self.plans if p.calibration is not None]
        return super().layer_extras() | {
            "seq.calibration.max_residual": (
                max(max(i.residual_re, i.residual_im) for i in infos), "1"),
            "seq.calibration.min_singular_value": (
                min(i.smallest_singular_value for i in infos), "1"),
        }


WORKLOADS = {cls.name: cls for cls in (Fig4Sweep, FullCharacterize, ShotDraws)}
