"""Independent cross-checks for the productivity index, and the quadrature
oracle they integrate with.

The oracle integrator pairs a 7-point Gauss rule with its 15-point Kronrod
extension on each panel; the difference of the two estimates serves as the
panel error.  It starts from a mesh of n0 panels that is geometric in r,
three per decade of b/a and at most 24, evaluated in one call of 15 n0
nodes: every oracle integrand behaves like a power of r near the well,
which equal panels resolve only by one serial bisection per halving of the
distance to it.  The panel with the largest error is then bisected, both
halves in one call of 30 nodes, until the summed error meets the tolerance
or the panel cap is hit.  Panels are kept in left-to-right order and summed
with compensated addition.  Nothing on the PI path uses it: it is the
independent oracle that the closed forms of ``quadrature`` are checked
against, which stay plain ``math``, so the PI commands start without numpy.

``_integrate_batch`` takes many independent integrals at once: each round
evaluates the pending panels of all unfinished ones in one integrand call
f(x, k), where k is the index of each node's integral, and every integral
keeps its own mesh, acceptance test, bisection and panel cap.  Each panel
is reduced on its own (``np.vecdot``), so its numbers do not depend on the
panels evaluated with it, and every integral of a batch equals, bit for
bit, what ``quadrature.integrate_adaptive`` gives it alone, which is the
batch of one.  The ``validate`` checks take their independent integrals as
batches, so that they pay numpy's per-call overhead once per round instead
of once per integral and round.

Two alternative routes to the PI that share no code with the closed-form
zone integrals:

* ``pi_from_profile`` builds the radial pressure profile W(r) by quadrature
  of g(v) v, then integrates r * W(r) again (a genuinely nested computation)
  and forms J = Q / (p_mean - p_w) with the mean drawdown
  p_mean - p_w = 2 int r W dr / (r_e^2 - r_w^2).  Every outer node gets its
  own inner quadrature, taken from the nearest node below it where W is
  already known, so each inner integral spans a short gap instead of the
  whole segment; the gaps whose first panel fails are one batch.
  Integration by parts ties that denominator to the drag energy integral,
  ``pi_from_energy``, one batch of zone energies, evaluated separately as
  an internal consistency check.

  The pre-Darcy drag lambda v^(1-s) vanishes like (r_e - r)^(1-s) at the
  outer boundary, so every pre-Darcy integral that ends at r_e (the outer
  integral, the zone energies and the segment integrals of
  ``pressure_profile``) starts from a first mesh graded into r_e
  (``singular_b``, see ``_first_mesh``) instead of bisecting its way there.

* ``compressible_velocity`` solves the slightly-compressible radial balance

      d(r v)/dr = -2 A r - gamma * r * g(v) v^2,    v(r_e) = 0,

  backward from the outer boundary with the adaptive Dormand-Prince 5(4)
  pair (Dormand & Prince 1980).  The sweep takes the step controller's own
  steps, clipping only the last onto the smallest requested radius, and
  reads the other samples from the pair's quartic continuous extension
  (Shampine 1986), so its cost does not depend on how many radii are
  asked for.  At gamma = 0 the right-hand side is linear in r and the
  scheme reproduces the incompressible profile to roundoff; the deviation
  from it grows linearly in gamma while the perturbation stays small.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Sequence

import numpy as np

from .constitutive import ZoneLaw, drag_power, pressure_gradient
from .kinematics import Scenario, finite_positive, flux_density, velocity_profile, zone_segments
from .quadrature import IntegralResult, QuadratureError, integrate_adaptive

# relative tolerances: W(r), zone energies and the inner integrals of
# pi_from_profile; its outer integral of r W(r); the agreement of its two
# routes; and the RK step controller of compressible_velocity
_INNER_REL_TOL = 1e-10
_OUTER_REL_TOL = 1e-9
_CONSISTENCY_TOL = 1e-7
_RK_REL_TOL = 1e-12


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod 7/15 quadrature
# ---------------------------------------------------------------------------

_XGK_HALF = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WGK_HALF = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG_HALF = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

# the 15 nodes on [-1, 1] and their Kronrod and Gauss weights
_GK_NODES = np.concatenate([-np.array(_XGK_HALF[:7]), _XGK_HALF[::-1]])
_GK_KRONROD = np.concatenate([_WGK_HALF[:7], _WGK_HALF[::-1]])
_GK_GAUSS = np.zeros(15)
_GK_GAUSS[1:14:2] = _WG_HALF[:3] + _WG_HALF[::-1]

# Subdivision cap; plenty for smooth integrands on a bounded interval.
_MAX_PANELS = 2000
# Cap on the geometric first mesh: 24 panels span eight decades at three
# per decade.
_FIRST_PANELS = 24
_LN10 = math.log(10.0)
# Absolute tolerance: in effect, the relative tolerance alone decides.
_ABS_TOL = 1e-300
_EPS = sys.float_info.epsilon


def _panels(f: Callable[..., np.ndarray], a: np.ndarray, b: np.ndarray, *args):
    """Kronrod value, error estimate and resabs of the 15-node panel on each
    interval [a[i], b[i]], a[i] <= b[i], as three arrays.

    ``f`` is called once, on the 15 * n nodes of all n panels flattened in
    interval order, followed by ``args``.  Each row is reduced on its own by
    ``np.vecdot``, so a panel's numbers do not depend on the others in the
    call; a matrix-vector product's blocking makes them depend on the row
    count and position.
    """
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = center[:, None] + half[:, None] * _GK_NODES
    fx = np.asarray(f(nodes.ravel(), *args), dtype=float).reshape(nodes.shape)
    kronrod = half * np.vecdot(fx, _GK_KRONROD)
    gauss = half * np.vecdot(fx, _GK_GAUSS)
    resabs = half * np.vecdot(np.abs(fx), _GK_KRONROD)
    return kronrod, np.abs(kronrod - gauss), resabs


def _first_mesh(a: float, b: float, singular_b: bool = False) -> list[float]:
    """Edges of the first panels on [a, b], a < b: geometric in r, three per
    decade of b/a rounded up, at most _FIRST_PANELS and _MAX_PANELS; one panel
    when a <= 0 or b/a <= 10^(1/3).  The edges come from logarithms, since b/a
    can overflow, and end exactly on a and b.

    ``singular_b`` also grades the mesh into b, for an integrand that is not
    smooth there: the edges b - (b - a) 10^(-k), k = 1..4, that lie at least
    1e-6 b below b, since nodes closer to b than that are so few ulps from
    it that the integrand turns noisy.  They lie above 0.9 b and every
    geometric edge below 0.7 b, and they count against _MAX_PANELS first."""
    graded = [b - (b - a) * 10.0**-k for k in range(1, 5)] if singular_b else []
    graded = [x for x in graded if b - x >= 1e-6 * abs(b)][:_MAX_PANELS - 1]
    interior: list[float] = []
    if a > 0.0:
        log_a = math.log(a)
        span = math.log(b) - log_a
        n = min(_FIRST_PANELS, _MAX_PANELS - len(graded), math.ceil(3.0 * span / _LN10))
        interior = [math.exp(log_a + i / n * span) for i in range(1, n)]
    return [a, *interior, *graded, b]


def _converged(value, err, resabs, rel_tol: float):
    """The acceptance test of integrate_adaptive: the error is finite and
    within max(1e-300, rel_tol * |value|), or at the roundoff floor of the
    integrand, where no further subdivision can help.  Only plain operators
    touch the floats, or the arrays, which it tests elementwise."""
    return (err < math.inf) & (
        (err <= _ABS_TOL) | (err <= rel_tol * abs(value)) | (err <= 100.0 * _EPS * resabs)
    )


def _integrate_batch(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: Sequence[float],
    b: Sequence[float],
    rel_tol: float = 1e-10,
    singular_b: list[bool] | None = None,
) -> list[IntegralResult]:
    """The integrals of f over each [a[j], b[j]], each one as
    ``integrate_adaptive`` takes it alone, bit for bit, with the first mesh
    of integral j graded into b[j] where ``singular_b[j]`` is true.

    Each round evaluates the pending panels of every unfinished integral
    together: f(x, k) receives their 15 * n nodes, grouped by integral in
    ascending order, and k, the index j of each node's integral, and returns
    the integrand at the nodes.  Every integral keeps its own first mesh,
    acceptance test, worst-panel bisection and panel cap, and no panel's
    numbers depend on the others evaluated with it.

    Raises ValueError for a bad bound or tolerance before f is called, and
    otherwise the QuadratureError that a loop of ``integrate_adaptive`` calls
    over the intervals in order would raise first: that of the first
    integral that fails.
    """
    results: list = [None] * len(a)
    # the panels of the next round with the integral of each, and for each
    # integral with some: its index, its panels so far, left to right, as
    # (a, b, value, error, resabs), the position of the panel the new ones
    # replace and their count
    lefts: list[float] = []
    rights: list[float] = []
    owner: list[int] = []
    pending: list[tuple[int, list, int, int]] = []
    for j, (lo, hi, graded) in enumerate(zip(a, b, singular_b or [False] * len(a))):
        if not -math.inf < lo <= hi < math.inf:
            raise ValueError(f"need finite a <= b, got a={lo}, b={hi}")
        if lo == hi:
            results[j] = IntegralResult(0.0, 0.0, 0)
            continue
        edges = _first_mesh(lo, hi, graded)
        n = len(edges) - 1
        lefts += edges[:-1]
        rights += edges[1:]
        owner += [j] * n
        pending.append((j, [], 0, n))
    if not 0 < rel_tol < math.inf:
        raise ValueError(f"rel_tol must be positive and finite, got {rel_tol}")
    failed = None
    while pending:
        k = np.array(owner).repeat(15)
        values, errs, resabs = _panels(f, np.array(lefts), np.array(rights), k)
        new = list(zip(lefts, rights, values.tolist(), errs.tolist(), resabs.tolist()))
        lefts, rights, owner, bisected = [], [], [], []
        start = 0
        for j, ps, at, n in pending:
            ps[at:at + 1] = new[start:start + n]
            start += n
            _, _, ps_values, ps_errs, ps_resabs = zip(*ps)
            err = math.fsum(ps_errs)
            if not math.isfinite(err):
                value = sum(ps_values)  # fsum raises on inf - inf
                failed = QuadratureError(
                    f"non-finite panel on [{a[j]}, {b[j]}] (value={value:.6e}, err={err:.2e})",
                    IntegralResult(value, err, len(ps)),
                )
                break  # a loop of single integrals reaches none after j
            value = math.fsum(ps_values)
            if _converged(value, err, math.fsum(ps_resabs), rel_tol):
                results[j] = IntegralResult(value, err, len(ps))
                continue
            if len(ps) >= _MAX_PANELS:
                failed = QuadratureError(
                    f"no convergence within {_MAX_PANELS} panels on [{a[j]}, {b[j]}] "
                    f"(value={value:.6e}, err={err:.2e})",
                    IntegralResult(value, err, len(ps)),
                )
                break
            worst = ps_errs.index(max(ps_errs))
            a0, b0 = ps[worst][:2]
            mid = 0.5 * (a0 + b0)
            lefts += (a0, mid)
            rights += (mid, b0)
            owner += (j, j)
            bisected.append((j, ps, worst, 2))
        pending = bisected
    if failed is not None:
        raise failed
    return results


# ---------------------------------------------------------------------------
# Pressure-profile and energy routes
# ---------------------------------------------------------------------------


def _grad_fun(scn: Scenario, law: ZoneLaw) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized |grad p| = g(v(r)) * v(r) along one zone law."""
    p = scn.params
    return lambda r: pressure_gradient(p, law, velocity_profile(scn, r))


def _split_integrand(funs: list[Callable[[np.ndarray], np.ndarray]], starts: Sequence[int]):
    """The integrand f(x, k) of an ``_integrate_batch`` whose integrals
    starts[i] <= k < starts[i + 1] follow funs[i]: one call of each on its
    nodes, which come grouped by integral, so each one's are one slice."""
    def integrand(x: np.ndarray, k: np.ndarray) -> np.ndarray:
        cuts = [0, *np.searchsorted(k, starts[1:]).tolist(), len(x)]
        return np.concatenate([fun(x[i:j]) for fun, i, j in zip(funs, cuts, cuts[1:])])

    return integrand


def _singular_end(scn: Scenario, law: ZoneLaw, hi: float) -> bool:
    """Whether an integral along ``law`` up to ``hi`` takes a first mesh
    graded into hi: the pre-Darcy drag lambda v^(1-s) vanishes like
    (r_e - r)^(1-s) at the outer boundary."""
    return law is ZoneLaw.PRE_DARCY and hi == scn.geometry.r_e


def pressure_profile(scn: Scenario, r):
    """W(r) = int_{r_w}^{r} g(v) v drho, zero at the well, nondecreasing.

    ``r`` is a float, which gives a float, or a numpy array of radii, which
    gives W at each in an array of its shape.  The integrals over the zone
    segments below every radius are one batch of ``_integrate_batch``, and W
    sums each radius's segments left to right, so W at a radius is, bit for
    bit, what that radius alone gives.  Raises ValueError for a radius
    outside [r_w, r_e] or NaN.
    """
    geo = scn.geometry
    radii = np.asarray(r, dtype=float)
    points = radii.ravel().tolist()
    for x in points:
        if not geo.r_w <= x <= geo.r_e:
            raise ValueError(f"r={x} outside [{geo.r_w}, {geo.r_e}]")
    # the integrals, segment by segment: [a, min(r, b)] for each radius r above a
    lo: list[float] = []
    hi: list[float] = []
    graded: list[bool] = []
    owner: list[int] = []
    starts: list[int] = []
    grads = []
    for a, b, law in zone_segments(scn):
        starts.append(len(lo))
        grads.append(_grad_fun(scn, law))
        for i, x in enumerate(points):
            if x > a:
                lo.append(a)
                hi.append(min(x, b))
                graded.append(_singular_end(scn, law, hi[-1]))
                owner.append(i)

    total = [0.0] * len(points)
    integrand = _split_integrand(grads, starts)
    for i, res in zip(owner, _integrate_batch(integrand, lo, hi, _INNER_REL_TOL, graded)):
        total[i] += res.value
    if radii.ndim == 0:
        return total[0]
    return np.array(total).reshape(radii.shape)


def _zone_energies(scn: Scenario, bounds: Sequence[tuple[float, float, ZoneLaw]]) -> list[float]:
    """int_lo^hi r g(v) v^2 dr along the law of each (lo, hi, law) of
    ``bounds``, as one batch of ``_integrate_batch``."""
    def energy(law: ZoneLaw) -> Callable[[np.ndarray], np.ndarray]:
        def integrand(r: np.ndarray) -> np.ndarray:
            v = velocity_profile(scn, r)
            return r * pressure_gradient(scn.params, law, v) * v

        return integrand

    lo, hi, laws = zip(*bounds)
    graded = [_singular_end(scn, law, b) for b, law in zip(hi, laws)]
    integrand = _split_integrand([energy(law) for law in laws], range(len(laws)))
    return [res.value for res in _integrate_batch(integrand, lo, hi, _INNER_REL_TOL, graded)]


def pi_from_energy(scn: Scenario) -> float:
    """Raw PI from the energy identity J = Q^2 / (2 pi h int r g(v) v^2 dr).

    The drag energies of the merged segments are one batch, summed left to
    right.  Raises FloatingPointError when the PI overflows, underflows to
    zero or is NaN.
    """
    energy = 0.0
    for value in _zone_energies(scn, zone_segments(scn)):
        energy += value
    q = scn.q
    return finite_positive("energy-route PI", q * q / (2.0 * math.pi * scn.geometry.h * energy))


def pi_from_profile(scn: Scenario) -> float:
    """Raw PI recomputed from the pressure profile by nested quadrature.

    J = Q / (p_mean - p_w), with the mean drawdown over the reservoir U
    p_mean - p_w = 2 int r W(r) dr / (r_e^2 - r_w^2), since |U| = pi h
    (r_e^2 - r_w^2).  W at every outer node comes from its own inner
    quadrature of g(v) v, taken from the nearest radius below the node where
    W is already known (the segment start, an earlier node or the previous node
    of the same batch) and accumulated onto the W found there; W at the
    segment starts is one ``pressure_profile`` call.  The first Gauss-Kronrod
    panels of a batch of outer nodes' gaps are one integrand call and one
    array acceptance test; the gaps that fail it are one adaptive batch, in
    node order; W adds left to right along each run of nodes chained to the
    previous one, as a loop over the nodes would.  The result is checked
    against the energy-identity route; disagreement beyond
    ``_CONSISTENCY_TOL`` signals a quadrature failure.  Raises
    FloatingPointError when the PI overflows, underflows to zero or is NaN,
    where both routes could agree on 0.
    """
    geo = scn.geometry
    total_rw = 0.0
    segments = zone_segments(scn)
    w_starts = pressure_profile(scn, np.array([a for a, _, _ in segments])).tolist()
    for (a, b, law), w0 in zip(segments, w_starts):
        grad = _grad_fun(scn, law)
        # radii in [a, b] where W - w0 is known, ascending, with those values
        known_r = np.array([a])
        known_w = np.array([0.0])

        def outer_integrand(radii: np.ndarray) -> np.ndarray:
            nonlocal known_r, known_w
            # the nodes arrive ascending, so each one's nearest known radius
            # below is the one found in known_r or the previous node; a node
            # chained to the previous one starts from that node's W
            j = np.searchsorted(known_r, radii, "right") - 1
            near = known_r[j]
            prev = np.concatenate(([-math.inf], radii[:-1]))
            chained = prev >= near
            starts = np.where(chained, prev, near)
            values, errs, resabs = _panels(grad, starts, radii)
            failed = np.flatnonzero(~_converged(values, errs, resabs, _INNER_REL_TOL))
            if failed.size:
                redo = _integrate_batch(lambda x, k: grad(x), starts[failed].tolist(),
                                        radii[failed].tolist(), _INNER_REL_TOL)
                values[failed] = [res.value for res in redo]
            # W along each chain, left to right from the base at its head
            steps = np.where(chained, values, known_w[j] + values)
            heads = np.flatnonzero(~chained).tolist()
            w = np.concatenate([np.add.accumulate(steps[i:k])
                                for i, k in zip(heads, heads[1:] + [radii.size])])
            # a stable sort puts each new radius after the known ones equal to it
            merged = np.concatenate((known_r, radii))
            order = np.argsort(merged, kind="stable")
            known_r = merged[order]
            known_w = np.concatenate((known_w, w))[order]
            return radii * (w0 + w)

        total_rw += integrate_adaptive(
            outer_integrand, a, b, _OUTER_REL_TOL, _singular_end(scn, law, b)
        ).value

    j_raw = scn.q * geo.radius_span_sq / (2.0 * total_rw)
    finite_positive("profile-route PI", j_raw)

    j_energy = pi_from_energy(scn)
    if abs(j_raw - j_energy) > _CONSISTENCY_TOL * abs(j_energy):
        raise RuntimeError(
            f"profile and energy routes disagree: {j_raw:.12e} vs {j_energy:.12e}"
        )
    return j_raw


# ---------------------------------------------------------------------------
# Slightly compressible velocity profile
# ---------------------------------------------------------------------------


class StepSizeUnderflow(RuntimeError):
    """The adaptive step fell below the resolvable radius scale."""


def compressible_velocity(
    scn: Scenario,
    gamma: float,
    radii: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """Speed profile v_gamma sampled at the given radii (unique, ascending).

    Sweeps the balance equation backward from r_e, where v_gamma = 0, with
    the step controller's own steps; only the last step is clipped, so that
    it ends on the smallest radius.  A radius at a step's end takes that
    step's solution, r_e takes exactly 0.0, and every other radius is read
    from the step's quartic continuous extension, so the work does not grow
    with the number of radii.  ``gamma = 0`` returns the incompressible
    profile.

    Each step's six new stages k1..k6, its fifth- and fourth-order weight
    sums and the coefficients q0..q3 of the continuous extension (Hairer,
    Norsett & Wanner, Solving ODEs I, sec. II.6), within a step from (r, u)

        u(r + theta h) = u + h theta (q0 + theta (q1 + theta (q2 + theta q3))),

    are written out over the locals k0..k6, one term per entry of the
    Dormand-Prince tableau in its order.  The weight sums u5 and u4 keep
    their zero entries, so that a NaN stage still reaches both and the
    controller rejects the step.  The coefficients q0..q3 are read only after
    a step is accepted, when u5 and u4, and so every stage, are finite; they
    skip their zero entries, since adding a zero changes no bit of a sum of
    finite terms that is not itself zero.  Each sum is therefore the
    tableau's sum added left to right, bit for bit; writing them out only
    spares the interpreter the loop over the tableau.

    The controller bounds each step's local error only, so the outputs
    reproduce to about 1.4e-10 of max v, not to ``_RK_REL_TOL``: a change of a
    few ulp per right-hand-side evaluation moves ``v_gamma`` by that much
    (seen on the base FDpD scenario at gamma = 1e-8).  A gate on these
    outputs should be set from that floor.  Against a sweep at a tolerance
    of 1e-14 the samples are within 5.7e-10 of max v (nine unit-scale
    scenarios, gamma 1e-3 to 1e-5).  An interpolated sample agrees with a
    sweep that ends on its radius to 6.7e-12 of v(r_w)
    (``checks.gamma_scaled_scenario`` at gamma 1e-3 to 1e-5, base FDpD at
    1e-8).

    Raises ValueError unless 0 <= gamma < inf, or when the radii are empty,
    NaN or outside [r_w, r_e].
    """
    if not 0.0 <= gamma < math.inf:
        raise ValueError(f"gamma must be nonnegative and finite, got {gamma}")
    geo = scn.geometry
    targets = np.unique(np.asarray(radii, dtype=float))
    if not (targets.size and geo.r_w <= targets[0] and targets[-1] <= geo.r_e):
        raise ValueError("sample radii must lie in [r_w, r_e]")

    a_flux = flux_density(scn)
    params, regime = scn.params, scn.regime

    def rhs(r: float, u: float) -> float:
        # drag_power is looked up in this module at every call, where a
        # tracer can count the evaluations
        return -2.0 * a_flux * r - gamma * r * drag_power(params, regime, u / r)

    ts = targets.tolist()
    r_end = ts[0]
    speeds = [0.0] * len(ts)  # v_gamma(r_e) = 0 stays
    n = len(ts) - 1  # the largest radius not yet sampled
    if ts[n] == geo.r_e:
        n -= 1
    r, u = geo.r_e, 0.0
    h_prop = -(geo.r_e - geo.r_w) / 100.0  # proposed (negative) step
    abs_floor = _RK_REL_TOL * a_flux * geo.r_e**2  # scale of max |r v|
    k0 = rhs(r, u)

    while n >= 0:
        h = max(h_prop, r_end - r)  # never step past the smallest radius
        k1 = rhs(r + 1 / 5 * h, u + h * (1 / 5 * k0))
        k2 = rhs(r + 3 / 10 * h, u + h * (3 / 40 * k0 + 9 / 40 * k1))
        k3 = rhs(r + 4 / 5 * h, u + h * (44 / 45 * k0 + -56 / 15 * k1 + 32 / 9 * k2))
        k4 = rhs(r + 8 / 9 * h, u + h * (
            19372 / 6561 * k0 + -25360 / 2187 * k1 + 64448 / 6561 * k2 + -212 / 729 * k3))
        k5 = rhs(r + h, u + h * (
            9017 / 3168 * k0 + -355 / 33 * k1 + 46732 / 5247 * k2 + 49 / 176 * k3
            + -5103 / 18656 * k4))
        # the fifth-order solution, whose weight sum is the last stage's;
        # 0.0 * k1 keeps a NaN k1 in it, as in u4
        u5 = u + h * (
            35 / 384 * k0 + 0.0 * k1 + 500 / 1113 * k2 + 125 / 192 * k3
            + -2187 / 6784 * k4 + 11 / 84 * k5)
        k6 = rhs(r + h, u5)
        u4 = u + h * (
            5179 / 57600 * k0 + 0.0 * k1 + 7571 / 16695 * k2 + 393 / 640 * k3
            + -92097 / 339200 * k4 + 187 / 2100 * k5 + 1 / 40 * k6)
        err = abs(u5 - u4)
        tol = abs_floor + _RK_REL_TOL * max(abs(u), abs(u5))
        if err <= tol:
            r_new = r_end if h == r_end - r else r + h
            if ts[n] > r_new:  # a radius inside the step
                q0 = k0
                q1 = (-8048581381 / 2820520608 * k0
                      + 131558114200 / 32700410799 * k2 + -1754552775 / 470086768 * k3
                      + 127303824393 / 49829197408 * k4 + -282668133 / 205662961 * k5
                      + 40617522 / 29380423 * k6)
                q2 = (8663915743 / 2820520608 * k0
                      + -68118460800 / 10900136933 * k2 + 14199869525 / 1410260304 * k3
                      + -318862633887 / 49829197408 * k4 + 2019193451 / 616988883 * k5
                      + -110615467 / 29380423 * k6)
                q3 = (-12715105075 / 11282082432 * k0
                      + 87487479700 / 32700410799 * k2 + -10690763975 / 1880347072 * k3
                      + 701980252875 / 199316789632 * k4 + -1453857185 / 822651844 * k5
                      + 69997945 / 29380423 * k6)
            while n >= 0 and ts[n] >= r_new:
                t = ts[n]
                if t == r_new:
                    v = u5
                else:
                    theta = (t - r) / h
                    v = u + h * theta * (q0 + theta * (q1 + theta * (q2 + theta * q3)))
                speeds[n] = v / t
                n -= 1
            # first same as last: the seventh stage is rhs(r + h, u5), which
            # is the next step's first stage unless this was the clipped
            # last step, after which no step follows
            k0 = k6
            r, u = r_new, u5
            grow = 5.0 if err == 0.0 else min(5.0, 0.9 * (tol / err) ** 0.2)
            h_prop = h * max(0.2, grow)
        else:
            # the first stage depends on (r, u) alone and is kept
            h_prop = h * max(0.2, 0.9 * (tol / err) ** 0.2)
            if abs(h_prop) < 1e-14 * geo.r_e:
                raise StepSizeUnderflow(f"step underflow at r={r}")
    return targets, np.array(speeds)
