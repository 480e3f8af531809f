"""Output checks: which ways, if any, one operation's result is wrong.

The checks run outside the timed region.  An operation fails when any
failure kind applies to it; a failure never stops the run.
"""

from __future__ import annotations

import math

from scipy.spatial import QhullError

from cubesec import bounds, conditions, polytope

# Relative tolerance between volume routes, as in tests/test_polytope.py; also
# the slack allowed above a proven bound and around the exact box volume.
REL_TOL = 1e-9

FAILURE_KINDS = ("raised", "above_bound", "route_disagree", "box")


def planar_optimum(n: int) -> float:
    """Proven optimal planar section: the 2 sqrt(ceil(n/2)) x 2 sqrt(floor(n/2)) rectangle."""
    return 4.0 * math.sqrt(math.ceil(n / 2) * math.floor(n / 2))


def box_volume(n: int, k: int) -> float:
    """Volume of the optimal box section, 2^k c_cube(n, k)."""
    return 2**k * bounds.c_cube(n, k)


def known_optimum(n: int, k: int) -> float:
    """The planar rectangle for k = 2, the box floor for k >= 3."""
    return planar_optimum(n) if k == 2 else box_volume(n, k)


def volume_ceiling(n: int, k: int) -> float:
    """Largest volume a correct result can have: Ball's bound, or the planar optimum."""
    ceiling = bounds.ball_upper(n, k)
    return min(ceiling, planar_optimum(n)) if k == 2 else ceiling


def failures(n: int, k: int, routes: dict, *, box: bool = False,
             conditions_passed: bool | None = None) -> list:
    """Failure kinds of one result, given its volume by every route.

    ``box`` marks a box frame, whose volume must be the exact box volume
    and which must pass the criticality checks.  A volume that is not
    finite fails both the bound and the agreement test.
    """
    kinds = []
    values = list(routes.values())
    finite = all(math.isfinite(v) for v in values)
    if not (finite and max(values) <= volume_ceiling(n, k) * (1 + REL_TOL)):
        kinds.append("above_bound")
    if not (finite and max(values) - min(values) <= REL_TOL * max(map(abs, values))):
        kinds.append("route_disagree")
    if box and not (abs(routes["volume"] / box_volume(n, k) - 1) <= REL_TOL
                    and conditions_passed):
        kinds.append("box")
    return kinds


def check_restart(n: int, k: int, restart) -> tuple[list, bool]:
    """Failure kinds of one optimizer restart, and whether its frame is critical.

    The restart's reported volume is compared with the triangulation and
    fast routes recomputed on its final frame.  The warm restart starts at
    the box frame, so it is held to the box checks.
    """
    try:
        p = polytope.build_section(restart.frame)
        routes = {
            "volume": restart.final_volume,
            "triangulation": polytope.volume_by_triangulation(p),
            "fast": polytope.section_volume_fast(restart.frame.vectors),
        }
        passed = conditions.verify_frame(restart.frame, p).passed
    except (ValueError, QhullError):  # what the polytope code raises on degenerate input
        return ["raised"], False
    return failures(n, k, routes, box=restart.start == "warm", conditions_passed=passed), passed
