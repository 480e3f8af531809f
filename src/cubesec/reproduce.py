"""Acceptance battery: one callable per headline result, with shared caches.

Each criterion returns a result record with pass/fail and detail lines;
:func:`run_battery` times each call.  Optimizer winners are cached per
dimension pair so overlapping criteria (volume targets, length windows,
criticality) pay for each maximization once.
"""

from __future__ import annotations

import math
import time
import traceback
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .frame_core import (
    cross_product_frame,
    det_rank_one,
    random_tight_frame,
    sqrt_det_first_order,
)
from .polytope import (
    build_section,
    rotate_facet_predict,
    rotated_section_volume,
    section_volume_fast,
    shift_facet_predict,
    shifted_section_volume,
    volume,
)
from .conditions import check_length_bounds, verify_frame
from .bounds import (
    PlanarAngles,
    ball_upper,
    c_cube,
    c_cube_squared,
    claim_bounds,
    default_partition,
    extremal_frame,
    extremal_squared_volume_exact,
    g,
    h,
    planar_angles,
    planar_area,
    q,
    vaaler_lower,
)
from .optimizer import OptimizerConfig, maximize

CONJECTURE_CELLS = [(4, 3), (5, 3), (7, 3), (5, 4), (7, 4)]
PLANAR_TIME_BUDGET = 300.0
BOUND_SAMPLES = 1000  # random tight frames per grid cell in bound-ordering


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: list = field(default_factory=list)
    loud: list = field(default_factory=list)
    duration: float = 0.0  # seconds of the criterion call (run_battery)
    optimizer_s: float = 0.0  # seconds of the optimizer runs it started (run_battery)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "duration_s": round(self.duration, 3),
            "optimizer_s": round(self.optimizer_s, 3),
            "details": list(self.details),
            "loud": list(self.loud),
        }


@dataclass
class BatteryContext:
    seed: int = 0
    n_max: int | None = None
    threads: int | None = None
    winners: dict = field(default_factory=dict)
    optimizer_seconds: float = 0.0

    def clip(self, n: int) -> int:
        return n if self.n_max is None else min(n, self.n_max)

    def winner(self, n: int, k: int):
        """Cached optimizer run for one dimension pair."""
        if (n, k) not in self.winners:
            config = OptimizerConfig(
                n=n, k=k, restarts=32 if k == 2 else 12, seed=self.seed
            )
            t0 = time.perf_counter()
            self.winners[(n, k)] = maximize(config, threads=self.threads)
            self.optimizer_seconds += time.perf_counter() - t0
        return self.winners[(n, k)]


def _winner_note(res, target: float) -> str:
    """The start that won a cell, how many random restarts reached
    ``target``, and the volumes the cell's restarts read in all: a report,
    not a gate."""
    evaluations = sum(r.evaluations for r in res.restarts)
    return "winner restart {} ({}), random restarts at target {} of {}, {} evaluation{}".format(
        res.best_index, res.best_start, *res.random_hits(target),
        evaluations, "" if evaluations == 1 else "s")


def _grid(ctx: BatteryContext):
    """Dimension pairs 1 <= k < n <= 12, k <= 4, clipped by n-max."""
    for k in range(1, 5):
        for n in range(k + 1, ctx.clip(12) + 1):
            yield n, k


def _box_sides(n: int) -> list:
    return sorted(
        [2 * math.sqrt(math.floor(n / 2)), 2 * math.sqrt(math.floor(n / 2)),
         2 * math.sqrt(math.ceil(n / 2)), 2 * math.sqrt(math.ceil(n / 2))]
    )


def _macro_side_lengths(p) -> list:
    """Edge lengths of the significant facets of a polygon."""
    return sorted(float(f.measure) for f in p.facets if f.measure > 1e-4)


def _circumradius_bound_ok(n: int, p) -> bool:
    """Winner polygons obey r^2 <= (n+1)/2 / cos^2(pi/2f)."""
    a = planar_angles(p)
    cap = (n + 1) / 2 / math.cos(math.pi / (2 * a.f)) ** 2
    return a.r**2 <= cap + 1e-9


def _saddle_angle_windows(ctx: BatteryContext, n: int) -> list:
    """Half-angle window check on near-critical multi-facet restarts.

    A restart at n=5, k=2 that ends near a critical configuration with 3
    or 4 facet pairs must have every half-angle in [pi/10, pi/4].  Finding
    no such configuration also passes, and the ascent finds none: every
    n=5 restart ends at the rectangle, so the check is vacuous.  Such
    configurations lie on tie strata that the ascent leaves by a merge; a
    census of the critical points on each stratum would give the check
    cases (ROADMAP item 2).
    """
    notes = []
    if n != 5:
        return notes
    for r in ctx.winner(n, 2).restarts:
        s = r.frame
        p = build_section(s)
        rep = verify_frame(s, p, tol_centroid=1e-3, tol_balance=1e-3, tol_cyclic=1e-3)
        if not rep.passed:
            continue
        try:
            a = planar_angles(p, tol_cyclic=1e-3)
        except ValueError:
            continue
        if a.f in (3, 4):
            inside = bool(
                np.all(a.phi >= math.pi / 10 - 1e-3)
                and np.all(a.phi <= math.pi / 4 + 1e-3)
            )
            notes.append(
                f"n=5 restart {r.index}: near-critical f={a.f}, half-angles in "
                f"[pi/10, pi/4]: {'yes' if inside else 'NO'}"
            )
            if not inside:
                notes.append("ANGLE WINDOW VIOLATION")
    if not notes:
        notes.append("n=5: no near-critical f in {3,4} restarts observed (also a pass)")
    return notes


def _error_line(exc: BaseException) -> str:
    return traceback.format_exception_only(type(exc), exc)[-1].strip()


def _contained(label: str, details: list, check, *args) -> bool:
    """Run one cell's check; an exception fails the cell, not the criterion."""
    try:
        return bool(check(*args))
    except Exception as exc:  # noqa: BLE001 - one bad cell must not hide the others
        details.append(f"{label}: error: {_error_line(exc)}")
        return False


def criterion_planar_optimum(ctx: BatteryContext) -> CriterionResult:
    """k=2 maximization attains the optimal rectangle for n = 3..10."""
    details, loud, ok = [], [], True
    opt0 = ctx.optimizer_seconds

    def cell(n):
        res = ctx.winner(n, 2)
        target = 4 * math.sqrt(math.ceil(n / 2) * math.floor(n / 2))
        rel = abs(res.best_volume / target - 1)
        vol_ok = rel <= 1e-6
        if res.best_volume > target * (1 + 1e-9):
            loud.append(
                f"(n={n}, k=2): best volume {res.best_volume!r} EXCEEDS the proven "
                f"planar optimum {target!r} by {res.best_volume - target:.3e} "
                "- a volume route is wrong; inspect this frame!"
            )
        p = build_section(res.best_frame)
        sides = _macro_side_lengths(p)
        expected = _box_sides(n)
        sides_ok = len(sides) == 4 and all(
            abs(a - b) <= 1e-5 for a, b in zip(sides, expected)
        )
        radius_ok = _circumradius_bound_ok(n, p)
        details.append(
            f"n={n}: volume {res.best_volume:.9f} vs {target:.9f} "
            f"(rel {rel:.1e}), rectangle={'yes' if sides_ok else 'NO'}, "
            f"circumradius bound={'ok' if radius_ok else 'FAIL'}, {_winner_note(res, target)}"
        )
        return vol_ok and sides_ok and radius_ok

    def window():
        lines = _saddle_angle_windows(ctx, 5)
        details.extend(lines)
        return not any("VIOLATION" in line for line in lines)

    for n in range(3, ctx.clip(10) + 1):
        ok &= _contained(f"n={n}", details, cell, n)
    if ctx.clip(10) >= 5:
        ok &= _contained("n=5 angle windows", details, window)
    spent = ctx.optimizer_seconds - opt0
    if spent > PLANAR_TIME_BUDGET:
        ok = False
        details.append(f"runtime budget exceeded: {spent:.0f}s > {PLANAR_TIME_BUDGET:.0f}s")
    else:
        details.append(f"optimizer runtime {spent:.0f}s (budget {PLANAR_TIME_BUDGET:.0f}s)")
    return CriterionResult("planar-optimum", ok, details, loud)


def criterion_extremal_exactness(ctx: BatteryContext) -> CriterionResult:
    """Box constructor volume is exact, rationally and in floats."""
    details, ok = [], True
    for n, k in _grid(ctx):
        sizes = [len(part) for part in default_partition(n, k)]
        target_sq = Fraction(4**k) * int(np.prod(sizes))
        exact = extremal_squared_volume_exact(n, k)
        s = extremal_frame(n, k)
        vol = volume(build_section(s))
        float_ok = abs(vol**2 - float(target_sq)) <= 1e-10 * float(target_sq)
        exact_ok = exact == target_sq == Fraction(4**k) * c_cube_squared(n, k)
        ok &= float_ok and exact_ok
        if not (float_ok and exact_ok):
            details.append(f"(n={n}, k={k}): exact={exact_ok} float={float_ok}")
    details.insert(0, f"{sum(1 for _ in _grid(ctx))} cells, squared volumes match 4^k * prod(d_i)")
    return CriterionResult("extremal-exactness", ok, details)


def criterion_bound_ordering(ctx: BatteryContext) -> CriterionResult:
    """2^k <= achieved volume <= upper bound on random tight frames."""
    details, ok = [], True
    violations = 0
    total = 0
    for n, k in _grid(ctx):
        rng = np.random.default_rng([ctx.seed, 3, n, k])
        lo, hi = vaaler_lower(k), ball_upper(n, k)
        for _ in range(BOUND_SAMPLES):
            s = random_tight_frame(n, k, rng)
            vol = section_volume_fast(s.vectors)
            total += 1
            if not lo <= vol <= hi:
                violations += 1
                details.append(f"violation at (n={n}, k={k}): vol={vol!r}")
    ok = violations == 0
    details.insert(0, f"{total} random tight frames, {violations} bound violations")
    return CriterionResult("bound-ordering", ok, details)


def _winner_cells(ctx: BatteryContext):
    for n in range(3, ctx.clip(10) + 1):
        yield n, 2
    for n, k in CONJECTURE_CELLS:
        if n <= ctx.clip(12):
            yield n, k


def criterion_length_bounds(ctx: BatteryContext) -> CriterionResult:
    """Winners' squared lengths respect the maximizer window."""
    details, ok = [], True

    def cell(n, k):
        violation = check_length_bounds(ctx.winner(n, k).best_frame)
        details.append(f"(n={n}, k={k}): window violation {violation:.2e}")
        return violation <= 1e-8

    def endpoints():
        sq = np.sort(ctx.winner(5, 2).best_frame.squared_lengths())
        details.append(
            f"(n=5, k=2) endpoints: min |v|^2 = {sq[0]:.9f} (target 1/3), "
            f"max = {sq[-1]:.9f} (target 1/2)"
        )
        return abs(sq[0] - 1 / 3) <= 1e-6 and abs(sq[-1] - 1 / 2) <= 1e-6

    for n, k in _winner_cells(ctx):
        ok &= _contained(f"(n={n}, k={k})", details, cell, n, k)
    if ctx.clip(10) >= 5:
        ok &= _contained("(n=5, k=2) endpoints", details, endpoints)
    return CriterionResult("length-bounds", ok, details)


def criterion_first_order_conditions(ctx: BatteryContext) -> CriterionResult:
    """Every winner passes the criticality checks at 1e-5."""
    details, ok = [], True

    def cell(n, k):
        # maximize ran verify_frame on this winner already
        checks = ctx.winner(n, k).conditions.checks
        corr = checks["facet_correspondence"].residual
        if corr > 0:
            details.append(f"(n={n}, k={k}): facet correspondence violations {corr:.0f}")
            return False
        cen = checks["centroid"].residual
        bal = checks["facet_balance"].residual
        cyc = checks["cyclic"].residual if k == 2 else 0.0
        details.append(
            f"(n={n}, k={k}): centroid {cen:.1e}, balance {bal:.1e}"
            + (f", cyclic {cyc:.1e}" if k == 2 else "")
        )
        return max(cen, bal, cyc) <= 1e-5

    for n, k in _winner_cells(ctx):
        ok &= _contained(f"(n={n}, k={k})", details, cell, n, k)
    return CriterionResult("first-order-conditions", ok, details)


def criterion_determinant_calculus(ctx: BatteryContext) -> CriterionResult:
    """Rank-one determinant identity and first-order sqrt-det coefficient."""
    details, ok = [], True
    rng = np.random.default_rng([ctx.seed, 6])
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 6))
        gmat = rng.standard_normal((k + 2, k))
        a = gmat.T @ gmat + 0.1 * np.eye(k)
        u = rng.standard_normal(k)
        sign = 1 if rng.random() < 0.5 else -1
        if sign == -1:
            u = 0.2 * u
        direct = float(np.linalg.det(a + sign * np.outer(u, u)))
        with warnings.catch_warnings():
            # downdates may leave the positive cone; the identity still holds
            warnings.simplefilter("ignore")
            value = det_rank_one(a, u, sign)
        worst = max(worst, abs(value - direct) / abs(direct))
    det_ok = worst <= 1e-10
    details.append(f"rank-one identity: worst relative error {worst:.2e} over 1000 draws")

    fd_ok = True
    checked = 0
    for _ in range(100):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(k, 9))
        s = random_tight_frame(n, k, rng)
        x = rng.standard_normal((n, k))
        coeff = sqrt_det_first_order(s, x)
        errs = []
        for t in (1e-3, 1e-4, 1e-5):
            vt = s.vectors + t * x
            slope = (math.sqrt(np.linalg.det(vt.T @ vt)) - 1.0) / t
            errs.append(abs(slope - coeff))
        if errs[0] < 1e-10:
            continue
        checked += 1
        if not (errs[0] > errs[1] > errs[2] and errs[2] <= 0.05 * errs[0]):
            fd_ok = False
            details.append(f"non-linear decay: errors {errs}")
    details.append(f"sqrt-det slope: linear error decay on {checked} generic draws")
    ok = det_ok and fd_ok
    return CriterionResult("determinant-calculus", ok, details)


def _fd_errors(base_vol, rebuild, predict, steps):
    errs = []
    for t in steps:
        errs.append(abs((rebuild(t) - base_vol) - predict(t)))
    return errs


def criterion_transformation_derivatives(ctx: BatteryContext) -> CriterionResult:
    """Shift and rotation predictors converge against rebuilt sections."""
    details, ok = [], True
    steps = (1e-3, 1e-4, 1e-5)
    counts = {"shift": 0, "rotate": 0}
    fails = 0
    rng = np.random.default_rng([ctx.seed, 7])
    for k in (2, 3):
        for _ in range(60):
            n = int(rng.integers(k + 1, 9))
            s = random_tight_frame(n, k, rng)
            p = build_section(s)
            f = p.facets[int(rng.integers(len(p.facets)))]
            base = volume(p)
            sign = 1.0 if rng.random() < 0.5 else -1.0

            errs = _fd_errors(
                base,
                lambda t: shifted_section_volume(p, f, sign * t),
                lambda t: shift_facet_predict(p, f, sign * t),
                steps,
            )
            if errs[0] >= 1e-11:
                counts["shift"] += 1
                if not (errs[0] > errs[1] > errs[2] and errs[2] <= 0.1 * errs[0]):
                    fails += 1
                    details.append(f"shift miss (n={n}, k={k}): errors {errs}")

            w = f.normal_vector
            u = rng.standard_normal(k)
            u -= np.dot(u, w) / np.dot(w, w) * w
            u /= np.linalg.norm(u)
            errs = _fd_errors(
                base,
                lambda t: rotated_section_volume(p, f, u, t),
                lambda t: rotate_facet_predict(p, f, w, u, t),
                steps,
            )
            if errs[0] >= 1e-11:
                counts["rotate"] += 1
                if not (errs[0] > errs[1] > errs[2] and errs[2] <= 0.1 * errs[0]):
                    fails += 1
                    details.append(f"rotate miss (n={n}, k={k}): errors {errs}")
    ok = fails == 0 and counts["shift"] + counts["rotate"] >= 100
    details.insert(
        0,
        f"{counts['shift']} shift + {counts['rotate']} rotate instances, {fails} misses",
    )
    return CriterionResult("transformation-derivatives", ok, details)


def criterion_cross_product_tightness(ctx: BatteryContext) -> CriterionResult:
    """Cross products over (k-1)-subsets of a tight frame stay tight."""
    details, ok = [], True
    rng = np.random.default_rng([ctx.seed, 8])
    worst = 0.0
    cases = 0
    for k in (2, 3, 4):
        for n in range(k, ctx.clip(8) + 1):
            for _ in range(10):
                s = random_tight_frame(n, k, rng)
                out = cross_product_frame(s)
                op = out.T @ out
                err = float(np.max(np.abs(op - np.eye(k))))
                worst = max(worst, err)
                cases += 1
    ok = worst <= 1e-10
    details.append(f"{cases} frames, worst tightness deviation {worst:.2e}")
    return CriterionResult("cross-product-tightness", ok, details)


def criterion_planar_claims(ctx: BatteryContext) -> CriterionResult:
    """Closed-form table values and the planar elimination arguments."""
    details, ok = [], True

    table = [
        ("g(3) = sqrt(3)", abs(g(3) - math.sqrt(3))),
        ("h(7) = sqrt(3)", abs(h(7) - math.sqrt(3))),
        ("g(4) = 4(sqrt(2)-1)", abs(g(4) - 4 * (math.sqrt(2) - 1))),
        ("g(5) = sqrt(5(5-2 sqrt 5))", abs(g(5) - math.sqrt(5 * (5 - 2 * math.sqrt(5))))),
        ("h(5) = 2 sqrt(6)/3", abs(h(5) - 2 * math.sqrt(6) / 3)),
    ]
    for label, err in table:
        if err > 1e-12:
            ok = False
            details.append(f"{label}: error {err:.2e}")
    details.append("table identities verified to 1e-12")

    cb = {n: claim_bounds(n) for n in [5, 7] + list(range(8, 21))}
    fb_ok = cb[5] <= 4 and cb[7] <= 3 and all(cb[n] == 2 for n in range(8, 21))
    ok &= fb_ok
    details.append(
        f"facet-pair caps: f({5})={cb[5]} (<=4), f(7)={cb[7]} (<=3), f(n>=8)=2: "
        f"{'ok' if fb_ok else 'FAIL'}"
    )

    # seven-dimensional regular-hexagon candidate is strictly suboptimal
    r2 = 14 / 3
    hexagon = PlanarAngles(f=3, phi=[math.pi / 6] * 3, r=math.sqrt(r2))
    area = planar_area(hexagon)
    hex_ok = area < 4 * c_cube(7, 2) and abs(area - 7 * math.sqrt(3)) < 1e-12
    ok &= hex_ok
    details.append(
        f"n=7 hexagon candidate: area {area:.6f} < {4 * c_cube(7, 2):.6f}: "
        f"{'ok' if hex_ok else 'FAIL'}"
    )

    grid = np.linspace(math.pi / 10, math.pi / 4, 20001)
    vals = np.array([q(x) for x in grid])
    qmax, qmin = vals.max(), vals.min()
    q_ok = (
        abs(qmax - 3 * math.sqrt(3) / 8) <= 1e-9
        and abs(qmin - 0.5) <= 1e-9
        and qmax / qmin < 2.0
        and abs(qmax / qmin - 3 * math.sqrt(3) / 4) <= 1e-8
    )
    ok &= q_ok
    details.append(
        f"angle-weight extrema on [pi/10, pi/4]: max {qmax:.9f}, min {qmin:.9f}, "
        f"ratio {qmax / qmin:.9f} < 2: {'ok' if q_ok else 'FAIL'}"
    )
    return CriterionResult("planar-claims", ok, details)


def criterion_conjecture_evidence(ctx: BatteryContext) -> CriterionResult:
    """k >= 3 cells reach the conjectured box floor; improvements are flagged."""
    details, ok = [], True
    loud = []

    def cell(n, k):
        res = ctx.winner(n, k)
        floor = 2**k * c_cube(n, k)
        reach_ok = res.best_volume >= floor - 1e-6
        crit_ok = res.conditions.passed
        details.append(
            f"(n={n}, k={k}): best {res.best_volume:.9f} vs box {floor:.9f}, "
            f"criticality {'pass' if crit_ok else 'FAIL'}, {_winner_note(res, floor)}"
        )
        if res.best_volume > floor + 1e-4:
            loud.append(
                f"(n={n}, k={k}): best volume {res.best_volume!r} EXCEEDS the "
                f"conjectured optimum {floor!r} by {res.best_volume - floor:.3e} "
                "- would contradict the affine-cube conjecture; inspect this frame!"
            )
        return reach_ok and crit_ok

    for n, k in CONJECTURE_CELLS:
        if n <= ctx.clip(12):
            ok &= _contained(f"(n={n}, k={k})", details, cell, n, k)
    return CriterionResult("conjecture-evidence", ok, details, loud)


CRITERIA = {
    "planar-optimum": criterion_planar_optimum,
    "extremal-exactness": criterion_extremal_exactness,
    "bound-ordering": criterion_bound_ordering,
    "length-bounds": criterion_length_bounds,
    "first-order-conditions": criterion_first_order_conditions,
    "determinant-calculus": criterion_determinant_calculus,
    "transformation-derivatives": criterion_transformation_derivatives,
    "cross-product-tightness": criterion_cross_product_tightness,
    "planar-claims": criterion_planar_claims,
    "conjecture-evidence": criterion_conjecture_evidence,
}


def select_criteria(only=None) -> list:
    """Resolve criterion names, accepting unambiguous substrings."""
    if not only:
        return list(CRITERIA)
    chosen = []
    for token in only:
        token = token.strip().lower()
        if token in CRITERIA:
            chosen.append(token)
            continue
        matches = [name for name in CRITERIA if token in name]
        if len(matches) != 1:
            raise KeyError(
                f"criterion {token!r} is {'ambiguous' if matches else 'unknown'}; "
                f"choose from {', '.join(CRITERIA)}"
            )
        chosen.append(matches[0])
    return chosen


def run_battery(ctx: BatteryContext, only=None) -> list:
    """Run the selected criteria; exceptions become failures, not crashes.

    Each result's ``duration`` is the wall time of its criterion call, and
    its ``optimizer_s`` how much ``ctx.optimizer_seconds`` grew meanwhile:
    a criterion that reuses a cached winner spends none.
    """
    results = []
    for name in select_criteria(only):
        t0, opt0 = time.perf_counter(), ctx.optimizer_seconds
        try:
            result = CRITERIA[name](ctx)
        except Exception as exc:  # noqa: BLE001 - battery must report, not crash
            result = CriterionResult(name, False, [f"error: {_error_line(exc)}"])
        result.duration = time.perf_counter() - t0
        result.optimizer_s = ctx.optimizer_seconds - opt0
        results.append(result)
    return results
