"""Command-line surface.

Exit codes: 0 success, 1 validation failure, 2 malformed input file,
3 domain error (invalid element, strength, or configuration).
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

import numpy as np

from .elements import ElementIndex
from .errors import DmresError, InvalidStateError, StateFormatError
from .linalg import DensityMatrix
from .plans import plan_document
from .precision import SystemSpec, default_g_grid, g_sweep
from .res import characterize, diagonal_element, element_plans, extract_element, plan_res
from .sampling import stream
from .scenarios import SCENARIO_IDS, default_spec, run_scenario
from .seq import plan_seq
from .shots import ALLOCATIONS, PER_SETTING, ShotPolicy, element_variance, simulate_shots
from .stateio import format_float, read_state, write_manifest, write_state
from .validate import GROUPS, run_validation

# Everything runs in one process; the flag stays so existing scripts still run.
_WORKERS_HELP = "accepted and ignored: outputs never depend on it"

_ANGLE_RE = re.compile(r"^\s*(-?)\s*(?:(\d+(?:\.\d+)?)\s*\*?\s*)?pi\s*(?:/\s*(\d+(?:\.\d+)?))?\s*$")


def parse_angle(text: str) -> float:
    """Radians from a decimal or a pi fraction such as 'pi/4' or '2pi/3'."""
    m = _ANGLE_RE.match(text.lower())
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        num = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        return sign * num * math.pi / den
    try:
        return float(text)
    except ValueError as exc:
        raise DmresError(f"cannot parse angle {text!r}") from exc


def parse_element(text: str, dims: tuple[int, ...]) -> ElementIndex:
    """Element from 'a,a_prime' digit strings, one digit per qudit."""
    try:
        left, right = text.split(",")
        s = tuple(int(c) for c in left.strip())
        sp = tuple(int(c) for c in right.strip())
    except ValueError as exc:
        raise DmresError(f"cannot parse element {text!r}") from exc
    return ElementIndex.create(dims, s, sp)


def _load_density(path: str) -> DensityMatrix:
    state = read_state(path)
    if not isinstance(state, DensityMatrix):
        state = state.density()
    return state


def cmd_extract(args) -> int:
    rho = _load_density(args.state)
    g = parse_angle(args.g)
    element = parse_element(args.element, rho.dims)
    policy = None if args.shots is None else ShotPolicy(n_t=args.shots, allocation=args.policy)
    if element.is_diagonal:
        value = complex(diagonal_element(rho, element.s), 0.0)
        plan = None
    else:
        plan = plan_res(element, g) if args.scheme == "res" else plan_seq(element, g)
        value = extract_element(rho, plan)
    print(f"element {element.label()}  scheme {args.scheme}  g {format_float(g)}")
    print(f"Re = {format_float(value.real)}")
    print(f"Im = {format_float(value.imag)}")
    if policy is not None and plan is not None:
        rng = stream(args.seed, f"cli/extract/{element.label()}")
        sim = simulate_shots(plan, rho, policy, rng)
        var_re, var_im = element_variance(plan, rho, policy)
        print(f"shot estimate Re = {format_float(sim.real)}  Im = {format_float(sim.imag)}")
        print(f"predicted stderr Re = {format_float(math.sqrt(var_re / args.shots))}"
              f"  Im = {format_float(math.sqrt(var_im / args.shots))}")
    if args.export_plan and plan is not None:
        Path(args.export_plan).write_text(plan_document(plan))
    return 0


def cmd_characterize(args) -> int:
    rho = _load_density(args.state)
    g = parse_angle(args.g)
    policy = None if args.shots is None else ShotPolicy(n_t=args.shots, allocation=args.policy)
    truth = _load_density(args.truth) if args.truth else None
    if truth is not None and truth.dims != rho.dims:
        raise InvalidStateError(f"truth dims {truth.dims} differ from state dims {rho.dims}")
    if policy is None:
        estimate, variances = characterize(rho, g), {}
    else:
        estimate, variances = _characterize_shots(rho, g, policy, args.seed)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_state(out_dir / "estimate.state", estimate)
    manifest = {
        "command": "characterize",
        "state": str(args.state),
        "g": format_float(g),
        "scheme": "res",
        "shots": None if args.shots is None else format_float(args.shots),
        "policy": args.policy,
        "seed": args.seed,
    }
    if truth is not None:
        _write_deviation_report(out_dir, estimate, truth, variances, policy)
        manifest["truth"] = str(args.truth)
    write_manifest(out_dir, manifest)
    print(f"wrote {out_dir / 'estimate.state'}")
    return 0


def _characterize_shots(rho: DensityMatrix, g: float, policy: ShotPolicy, seed: int):
    """Estimate every entry from finite Poisson statistics.

    Diagonal probabilities come from the relative frequencies of one
    meterless post-selection run, which keeps the estimate unit trace;
    each off-diagonal entry is one finite-statistics extraction.  Returns
    the estimate and n_t (var Re + var Im) of each upper-triangle pair
    (u, v), from the plan that drew it.
    """
    diag_rng = stream(seed, "cli/characterize/diag")
    diag_counts = diag_rng.poisson(policy.n_t * np.clip(np.diag(rho.entries).real, 0, None))
    est = np.diag(diag_counts / max(diag_counts.sum(), 1)).astype(complex)
    variances = {}
    for (u, v), plan in element_plans(rho.dims, g, plan_res):
        rng = stream(seed, f"cli/characterize/{plan.element.label()}")
        value = simulate_shots(plan, rho, policy, rng)
        est[u, v] = value
        est[v, u] = np.conj(value)
        var_re, var_im = element_variance(plan, rho, policy)
        variances[u, v] = var_re + var_im
    return DensityMatrix.create(est, rho.dims, check_positive=False), variances


def _write_deviation_report(out_dir, estimate, truth, variances, policy) -> None:
    """Per-entry deviations; with a shot policy, also the predicted standard error.

    Entry (v, u) is the conjugate of (u, v), whose Re and Im shot
    variances it shares, so both read the variances of the upper-triangle pair.
    """
    rows = ["row,col,re_est,im_est,re_true,im_true,abs_dev,pred_stderr"]
    total = truth.dim
    for u in range(total):
        for v in range(total):
            dev = abs(estimate.entries[u, v] - truth.entries[u, v])
            stderr = ""
            if policy is not None and u != v:
                stderr = format_float(math.sqrt(variances[min(u, v), max(u, v)] / policy.n_t))
            elif policy is not None:
                p = truth.entries[u, u].real
                stderr = format_float(math.sqrt(max(p, 0.0) / policy.n_t))
            rows.append(
                f"{u},{v},{format_float(estimate.entries[u, v].real)},"
                f"{format_float(estimate.entries[u, v].imag)},"
                f"{format_float(truth.entries[u, v].real)},{format_float(truth.entries[u, v].imag)},"
                f"{format_float(dev)},{stderr}"
            )
    (Path(out_dir) / "deviation.csv").write_text("\n".join(rows) + "\n")


def cmd_precision(args) -> int:
    system = SystemSpec.parse(args.system)
    schemes = [s.strip() for s in args.scheme.split(",")]
    policy = ShotPolicy(n_t=args.n_t, allocation=args.policy)
    if args.g_grid is None:
        grid = [parse_angle(args.g)]
    elif args.g_grid == "default":
        grid = default_g_grid()
    else:
        tokens = args.g_grid.split(",")
        if not any(tok.strip() for tok in tokens):
            raise DmresError(f"--g-grid {args.g_grid!r} names no strength")
        grid = [parse_angle(tok) for tok in tokens]
    report = g_sweep(system, schemes, grid, args.samples, policy, seed=args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    report.write(out)
    manifest = {
        "command": "precision",
        "system": system.label,
        "schemes": schemes,
        "g": args.g,
        "g_grid": args.g_grid,
        "samples": args.samples,
        "policy": args.policy,
        "n_t": format_float(args.n_t),
        "seed": args.seed,
        "argmin": {f"{k[0]}/{k[1]}": format_float(v) for k, v in report.argmin.items()},
    }
    write_manifest(out.parent, manifest)
    print(f"wrote {out}")
    return 0


def cmd_scenario(args) -> int:
    overrides = {"seed": args.seed}
    if args.samples is not None:
        overrides["samples"] = args.samples
    if args.n_t is not None:
        overrides["n_t"] = args.n_t
    if args.g is not None:
        overrides["g"] = parse_angle(args.g)
    if args.sampled_run:
        overrides["sampled_run"] = args.sampled_run
    spec = default_spec(args.scenario, **overrides)
    result = run_scenario(spec)
    out = result.write(Path(args.out) / args.scenario)
    print(f"wrote {out}")
    return 0


def cmd_validate(args) -> int:
    groups = [args.group] if args.group else None
    results = run_validation(groups)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<18} {r.seconds:7.2f}s  {r.detail}")
    if failed:
        print(f"{len(failed)} group(s) failed: {', '.join(r.name for r in failed)}")
        return 1
    print("all validation groups passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmres",
        description="Direct density-matrix element characterization and precision analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract one density-matrix element from a state file")
    p.add_argument("--scheme", choices=("res", "seq"), default="res")
    p.add_argument("--element", required=True, help="element as 'a,a_prime' digit strings")
    p.add_argument("--g", required=True, help="coupling strength (radians or pi fraction)")
    p.add_argument("--state", required=True, help="input state file")
    p.add_argument("--shots", type=float, default=None, help="photon rate n_t for a finite-statistics draw")
    p.add_argument("--policy", choices=ALLOCATIONS, default=PER_SETTING)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--export-plan", default=None, help="write the plan description to this path")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("characterize", help="estimate the full density matrix")
    p.add_argument("--state", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--truth", default=None, help="reference state file for a deviation report")
    p.add_argument("--shots", type=float, default=None)
    p.add_argument("--policy", choices=ALLOCATIONS, default=PER_SETTING)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("precision", help="Haar-averaged precision at one g or over a grid")
    p.add_argument("--system", required=True, help="'qutrit', 'two-qubit' or 'N,d'")
    p.add_argument("--scheme", default="res", help="comma-separated schemes")
    p.add_argument("--g", default="pi/4")
    p.add_argument("--g-grid", default=None, help="'default' or comma-separated strengths")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--policy", choices=ALLOCATIONS, default=PER_SETTING)
    p.add_argument("--n-t", type=float, default=1.0, dest="n_t")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    p.add_argument("--out", required=True, help="report CSV path")
    p.set_defaults(func=cmd_precision)

    p = sub.add_parser("scenario", help="reproduce a figure panel as data tables")
    p.add_argument("scenario", help="one of " + ", ".join(SCENARIO_IDS))
    p.add_argument("--out", required=True, help="output directory root")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--n-t", type=float, default=None, dest="n_t")
    p.add_argument("--g", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    p.add_argument("--sampled-run", type=int, default=0,
                   help="also shot-simulate this many random states")
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("validate", help="run the invariant suite")
    p.add_argument("--group", choices=sorted(GROUPS), default=None)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StateFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DmresError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
