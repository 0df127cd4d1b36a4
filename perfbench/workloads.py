"""The benchmark's workloads: seed-drawn cells, each with its oracle.

A cell is one call a user would make (one sweep cell, one protocol run,
one small-state evaluation).  `Cell.run` calls the library and returns a
row; `Cell.check` compares that row with an oracle and returns the
problems found, an empty list when the row is right.  Oracles are either
an independent NumPy computation or one of the paper's closed forms.
Keys of a row that start with "_" carry evidence for the oracle (a state,
say) and are dropped once the row has been checked.

Every cell refers to the library through its module objects at call
time, so the tracer's wrappers see every call.

Why these workloads:
* family-sweep is dominated by dense spectra of coherent states and
  dense construction, where a block spectrum or a structured state acts;
* bias-steering runs no eigensolve on a coherent state: its time is in
  apply_unitary, DensityMatrix construction and pair_rotation_unitary,
  so vectorised rotations show here and a block spectrum does not;
* small-systems runs the same code at dim <= 256, thousands of times, so
  it shows per-call overhead and the scalar solvers, and it is the only
  workload where verify, figures and the PPT code do real work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from ergokit import (
    analysis,
    cli,
    core,
    families,
    figures,
    passivity,
    protocols,
    verify,
)
from ergokit.errors import InfeasibilityError

# Sizes of the two dense workloads.  n = 12 (dim 4096) would cost about
# 30 s per family-sweep pass, too long to repeat in one run.
DENSE_SIZES = (9, 10, 11)
REDUCED_SIZES = (3, 4)

# Every beta (and beta of a random ladder) is drawn from this range.  The
# fixed-entropy target is drawn uniformly over the part of the family's
# range that diagonal_state_at_entropy answers today (see answered_ranges).
BETA_RANGE = (0.3, 2.0)
GOLDEN_STEPS = 100
# kept between a drawn target and the edges of an answered range, so that
# rounding in the library cannot move the target across one
EDGE_MARGIN = 1e-9
# narrowest part of the family's range, outside the answered ranges, that
# gets a left-out target (see _fixed_entropy_target)
GAP_MIN = 1e-6

WORK_TOL = 1e-9
ENTROPY_TOL = 1e-9
BIAS_TOL = 1e-12
PSD_TOL = 1e-10

FAMILY_COLUMNS = cli.SWEEP_COLUMNS
PROTOCOL_COLUMNS = ("kind", "n", "beta_prime", "target_bias", "level", "angle",
                    "achieved_bias", "residual", "levels")


@dataclass(frozen=True)
class Cell:
    label: str
    run: Callable[[], dict]
    check: Callable[[dict], list]


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple
    # emit_csv columns for the rendered rows; None renders nothing
    columns: Optional[tuple]
    # lines for the run's report about how the inputs were drawn
    notes: tuple = ()
    # (spec, target) pairs that the family reaches but that the draws leave
    # out; see refused_note
    left_out: tuple = ()


def build(name: str, seed: int, reduced: bool = False) -> Workload:
    """Generate the named workload's cells from the seed."""
    builders = {
        "family-sweep": family_sweep,
        "bias-steering": bias_steering,
        "small-systems": small_systems,
    }
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(builders)}")
    return builders[name](seed, reduced)


# ---------------------------------------------------------------------------
# shared oracles
# ---------------------------------------------------------------------------

def _qubit_excited(beta: float) -> float:
    """Excitation probability of a qubit with gap 1 at inverse temperature beta."""
    return 1.0 / (1.0 + math.exp(beta))


def _gibbs(ladder, beta: float) -> np.ndarray:
    weights = np.exp(-beta * np.asarray(ladder, dtype=float))
    return weights / weights.sum()


def _entropy_of(probabilities) -> float:
    p = np.asarray(probabilities, dtype=float)
    p = p[p > 0.0]
    return float(-(p * np.log(p)).sum())


def _xlnx(x: float) -> float:
    return x * math.log(x) if x > 0.0 else 0.0


def family_reach(n: int, beta: float) -> float:
    """Most entropy the three-weight diagonal family reaches on n qubits.

    At shell D (1 <= D <= n//2) the family puts weight g on the Dicke
    shell, spread evenly, and keeps every qubit thermal; its entropy f_D(g)
    is concave in g on [0, g_max], so golden-section search finds its
    maximum.  The family's reach is the largest of these maxima.
    """
    p = _qubit_excited(beta)
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    reach = _entropy_of((p, 1.0 - p))
    for shell in range(1, n // 2 + 1):
        ln_size = math.log(math.comb(n, shell))

        def f(g):
            return (g * ln_size - _xlnx(g) - _xlnx(p - g * shell / n)
                    - _xlnx(1.0 - p - g * (n - shell) / n))

        lo, hi = 0.0, min(1.0, n * p / shell, n * (1.0 - p) / (n - shell))
        for _ in range(GOLDEN_STEPS):
            a, b = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
            if f(a) < f(b):
                lo = a
            else:
                hi = b
        reach = max(reach, f(0.5 * (lo + hi)))
    return reach


def _shell_entropy(g: np.ndarray, p: float, n: int, shell: int) -> np.ndarray:
    """The family's entropy f_D(g) at shell D, elementwise over the weights g."""
    def xlnx(x):
        return np.where(x > 0.0, x * np.log(np.where(x > 0.0, x, 1.0)), 0.0)

    return (g * math.log(math.comb(n, shell)) - xlnx(g) - xlnx(p - g * shell / n)
            - xlnx(1.0 - p - g * (n - shell) / n))


def answered_ranges(n: int, beta: float) -> list:
    """The target intervals on which diagonal_state_at_entropy answers today.

    For a target S the function takes the smallest shell D with
    ln C(n, D) >= S and looks for S on that shell's family f_D, at the
    points of its forward scan (step families.GAMMA_SCAN_STEP).  It answers
    when S is at most the largest scanned value of f_D.  Otherwise it calls
    S infeasible, even where a larger shell, or f_D between two scan
    points, reaches S: the ROADMAP item 5 defect.  So it answers S in
    (ln C(n, D-1), min(ln C(n, D), max of f_D on the scan)] for each D, with
    the local entropy f_D(0) = h(p) as the lowest target.
    """
    p = _qubit_excited(beta)
    low = _entropy_of((p, 1.0 - p))
    ranges = []
    for shell in range(1, n // 2 + 1):
        hi = min(1.0, n * p / shell, n * (1.0 - p) / (n - shell))
        steps = math.ceil(hi / families.GAMMA_SCAN_STEP)
        scan = np.minimum(np.arange(steps + 1) * families.GAMMA_SCAN_STEP, hi)
        ln_size = math.log(math.comb(n, shell))
        top = min(ln_size, float(_shell_entropy(scan, p, n, shell).max()))
        if top - low > 2.0 * EDGE_MARGIN:
            ranges.append((low + EDGE_MARGIN, top - EDGE_MARGIN))
        low = max(low, ln_size)
    return ranges


def _fixed_entropy_target(rng, n: int, beta: float) -> tuple:
    """(target, reach, share, left_out): a target drawn over the answered ranges.

    reach is the most entropy the family reaches, and share the part of
    [h(p), reach] that the answered ranges cover.  The draw leaves out the
    targets the function refuses because of the ROADMAP item 5 defect: the
    benchmark's workloads must run without failures, and the oracle still
    fails any target the function refuses within the answered ranges.
    left_out is the middle of the widest part of [h(p), reach] outside the
    answered ranges, or None when they cover it all.
    """
    ranges = answered_ranges(n, beta)
    lengths = [top - low for low, top in ranges]
    left = float(rng.uniform()) * sum(lengths)
    for (low, top), length in zip(ranges, lengths):
        if left <= length:
            break
        left -= length
    local = _entropy_of(_gibbs((0.0, 1.0), beta))
    reach = family_reach(n, beta)
    edges = [local] + [edge for answered in ranges for edge in answered] + [reach]
    gaps = [(b - a, 0.5 * (a + b)) for a, b in zip(edges[::2], edges[1::2])]
    width, middle = max(gaps)
    return (min(low + left, top), reach, sum(lengths) / (reach - local),
            middle if width > GAP_MIN else None)


def _drawn(kind: str, drawn: list) -> dict:
    """The Workload fields that report on the fixed-entropy draws.

    drawn holds (spec, share, left_out) per cell, from _fixed_entropy_target.
    """
    shares = [share for _, share, _ in drawn]
    note = (f"{kind} targets: drawn from the part of the family's entropy range that "
            f"diagonal_state_at_entropy answers, {100.0 * min(shares):.1f}-"
            f"{100.0 * max(shares):.1f} % of it over {len(shares)} cells; it calls the "
            f"rest infeasible (ROADMAP item 5 defect), so the rest is left out")
    return {"notes": (note,),
            "left_out": tuple((spec, target) for spec, _, target in drawn
                              if target is not None)}


def refused_note(workload: Workload) -> Optional[str]:
    """Try each left-out target once and report how many the function refuses.

    This keeps the ROADMAP item 5 defect in every run's report; a target
    it now answers means the draws can take more of the family's range.
    """
    if not workload.left_out:
        return None
    refused = 0
    for spec, target in workload.left_out:
        try:
            families.diagonal_state_at_entropy(spec, target)
        except InfeasibilityError:
            refused += 1
    note = (f"ROADMAP item 5 defect: diagonal_state_at_entropy refused {refused} of "
            f"{len(workload.left_out)} left-out targets, each one the family reaches")
    if refused < len(workload.left_out):
        note += "; it answers the others, so the draws can be widened"
    return note


def _false_infeasible(target: float, reach: float, note) -> list:
    return [f"false infeasible for entropy {target!r}, which the family reaches "
            f"(up to {reach!r}); ROADMAP item 5 defect in diagonal_state_at_entropy: {note}"]


def _near(value, expected, tol, what) -> list:
    if value is None or not abs(value - expected) <= tol:
        return [f"{what} = {value!r}, expected {expected!r} (tol {tol:g})"]
    return []


# ---------------------------------------------------------------------------
# family-sweep
# ---------------------------------------------------------------------------

def family_sweep(seed: int, reduced: bool = False) -> Workload:
    """One sweep cell per (state family, n), rendered together as one CSV."""
    rng = np.random.default_rng([seed, 1])
    cells = []
    drawn = []
    for n in (REDUCED_SIZES if reduced else DENSE_SIZES):
        for family in cli.STATE_FAMILIES:
            beta = float(rng.uniform(*BETA_RANGE))
            target = reach = None
            if family == "fixed-entropy":
                target, reach, share, left_out = _fixed_entropy_target(rng, n, beta)
                drawn.append((core.SystemSpec.qubits(n, beta), share, left_out))
            config = cli.SweepConfig(family=family, n_values=(n,), beta=beta,
                                     total_entropy=target)
            cells.append(Cell(f"{family}/n={n}", partial(_sweep_cell, config),
                              partial(check_family_row, target=target, reach=reach)))
    return Workload("family-sweep", tuple(cells), FAMILY_COLUMNS,
                    **_drawn("fixed-entropy", drawn))


def _sweep_cell(config) -> dict:
    (row,) = cli.sweep_rows(config)
    return row


def check_family_row(row: dict, target: Optional[float] = None,
                     reach: Optional[float] = None) -> list:
    """Ergotropy against its closed form; fixed-entropy rows against the target."""
    family = row["family"]
    if row.get("status") != "ok":
        if family == "fixed-entropy" and row.get("status") == "infeasible":
            return _false_infeasible(target, reach, row.get("note"))
        return [f"status {row.get('status')!r}: {row.get('note')}"]
    spec = core.SystemSpec.qubits(row["n"], row["beta"])
    work = row.get("ergotropy")
    if family == "fixed-entropy":
        return _near(row.get("entropy"), target, ENTROPY_TOL, "entropy")
    if family == "entangled":
        expected = spec.n * _qubit_excited(spec.beta)
    elif family == "separable":
        expected = passivity.separable_work_limit(spec)
    elif family == "dicke":
        expected = analysis.dicke_mixture_work_formula(spec)
    else:
        return [f"unknown family {family!r}"]
    return _near(work, expected, WORK_TOL * max(1.0, abs(expected)), "ergotropy")


# ---------------------------------------------------------------------------
# bias-steering
# ---------------------------------------------------------------------------

def bias_steering(seed: int, reduced: bool = False) -> Workload:
    """Rotate, invert and every single-shell inversion, per n."""
    rng = np.random.default_rng([seed, 2])
    cells = []
    starts: dict = {}
    for n in (REDUCED_SIZES if reduced else DENSE_SIZES):
        spec = core.SystemSpec.qubits(n, 1.0)
        beta_prime = float(rng.uniform(0.5, 2.0))
        bias_prime = math.tanh(beta_prime / 2.0)
        rotate_target = float(rng.uniform(-0.9, 0.9)) * bias_prime
        invert_target = float(rng.uniform(-0.9, 0.9)) * bias_prime
        cells.append(Cell(f"rotate/n={n}",
                          partial(_rotate_cell, spec, beta_prime, rotate_target),
                          partial(check_rotation, bias_prime=bias_prime)))
        cells.append(Cell(f"invert/n={n}",
                          partial(_invert_cell, spec, beta_prime, invert_target),
                          partial(check_inversion_chain, bias_prime=bias_prime)))
        cells.append(Cell(f"start/n={n}",
                          partial(_start_cell, spec, beta_prime, starts),
                          partial(check_start, bias_prime=bias_prime)))
        for level in range((n + 1) // 2):
            cells.append(Cell(f"level/n={n}/{level}",
                              partial(_level_cell, spec, beta_prime, level, starts),
                              partial(check_level, spec=spec)))
    return Workload("bias-steering", tuple(cells), PROTOCOL_COLUMNS)


def _row(kind, spec, beta_prime, **values) -> dict:
    return {"kind": kind, "n": spec.n, "beta_prime": beta_prime, **values}


def _rotate_cell(spec, beta_prime, target) -> dict:
    result = protocols.prepare_locally_thermal(spec, beta_prime, target)
    return _row("rotate", spec, beta_prime, target_bias=target, angle=result.angle,
                achieved_bias=result.achieved_bias, residual=result.residual)


def check_rotation(row: dict, bias_prime: float) -> list:
    """Achieved bias against cos(2a) z', and against the requested target."""
    expected = math.cos(2.0 * row["angle"]) * bias_prime
    return (_near(row.get("achieved_bias"), expected, BIAS_TOL, "bias")
            + _near(row.get("achieved_bias"), row["target_bias"], 1e-9, "bias vs target"))


def _invert_cell(spec, beta_prime, target) -> dict:
    result = protocols.inversion_sequence_to_bias(spec, beta_prime, target)
    return _row("invert", spec, beta_prime, target_bias=target,
                achieved_bias=result.achieved_bias, residual=result.residual,
                levels=" ".join(str(level) for level in result.levels),
                _diagonal=result.state.diagonal)


def check_inversion_chain(row: dict, bias_prime: float) -> list:
    """The reported bias is the state's, and the chain never lost ground."""
    diag = row["_diagonal"]
    half = diag.size // 2
    problems = _near(row.get("achieved_bias"), float(diag[:half].sum() - diag[half:].sum()),
                     BIAS_TOL, "bias vs state")
    start_residual = abs(bias_prime - row["target_bias"])
    if not row["residual"] <= start_residual + BIAS_TOL:
        problems.append(f"residual {row['residual']!r} above the start {start_residual!r}")
    return problems


def _start_cell(spec, beta_prime, starts) -> dict:
    state = families.product_thermal_state(spec, beta_prime)
    starts[spec.n] = state
    return _row("start", spec, beta_prime,
                achieved_bias=protocols.measure_bias(state, spec))


def check_start(row: dict, bias_prime: float) -> list:
    return _near(row.get("achieved_bias"), bias_prime, BIAS_TOL, "bias")


def _level_cell(spec, beta_prime, level, starts) -> dict:
    unitary = protocols.level_inversion_unitary(spec, level)
    swapped = core.apply_unitary(starts[spec.n], unitary)
    return _row("level", spec, beta_prime, level=level,
                achieved_bias=protocols.measure_bias(swapped, spec))


def check_level(row: dict, spec) -> list:
    """Each single-shell inversion against the exact shift formula."""
    expected = protocols.bias_after_inversion(
        spec, _qubit_excited(row["beta_prime"]), row["level"])
    return _near(row.get("achieved_bias"), expected, BIAS_TOL, "bias")


# ---------------------------------------------------------------------------
# small-systems
# ---------------------------------------------------------------------------

VERIFY_SUITES = ("passivity", "entanglement")
PPT_SIZES = tuple(range(2, 9))

# (kind, sizes): one entry per kind of cell the workload covers, with the
# sizes it takes.  Random states take (n, d) with d**n <= 64; the PPT and
# entropy cells take n <= 8 qubits; beta_for_entropy takes one site of
# d = 2..4 levels; figure1 takes n_max = 20.  Every (kind, size) pair
# appears SMALL_REPEATS times, with no weight per kind, so the mix follows
# from this list alone.  The seed changes the parameters and the order of
# cells but not their sizes, and a pass costs about the same on every seed.
SMALL_PLAN = (
    ("random", tuple((n, d) for d, top in ((2, 6), (3, 3), (4, 3))
                     for n in range(1, top + 1))),
    ("separable-ppt", PPT_SIZES),
    ("witness", (2, 4, 6, 8)),
    ("beta-for-entropy", (2, 3, 4)),
    ("entropy-bound", PPT_SIZES),
    ("entropy-state", PPT_SIZES),
    ("figure1", (20,)),
)
# 41 (kind, size) pairs x 25 = 1025 cells: over 1000, so that cell_ms_p99
# has at least ten cells beyond it
SMALL_REPEATS = 25


def small_systems(seed: int, reduced: bool = False) -> Workload:
    """1025 cells at dim <= 256 in a seed-drawn order, then two verify suites."""
    rng = np.random.default_rng([seed, 3])
    drawn = []
    makers = {
        "random": _random_state_cell,
        "separable-ppt": _separable_ppt_cell,
        "witness": _witness_cell,
        "beta-for-entropy": _beta_for_entropy_cell,
        "entropy-bound": _entropy_bound_cell,
        "entropy-state": partial(_entropy_state_cell, drawn=drawn),
        "figure1": _figure1_cell,
    }
    plan = [(kind, size) for kind, sizes in SMALL_PLAN
            for _ in range(1 if reduced else SMALL_REPEATS) for size in sizes]
    plan = [plan[i] for i in rng.permutation(len(plan))]
    cells = [makers[kind](rng, size, seed, index) for index, (kind, size) in enumerate(plan)]
    cells += [Cell(f"verify/{suite}", partial(_verify_cell, suite, seed), check_verify)
              for suite in VERIFY_SUITES]
    return Workload("small-systems", tuple(cells), None, **_drawn("entropy-state", drawn))


def _ladder_spec(rng, n: int, d: int) -> core.SystemSpec:
    ladder = (0.0,) + tuple(float(e) for e in np.cumsum(rng.uniform(0.2, 1.5, d - 1)))
    return core.SystemSpec(n=n, d=d, local_energies=ladder,
                           beta=float(rng.uniform(*BETA_RANGE)))


def _random_state_cell(rng, size, seed, index) -> Cell:
    spec = _ladder_spec(rng, *size)
    return Cell(f"random/{index}/n={spec.n}/d={spec.d}",
                partial(_random_state_run, spec, seed, index), check_random_state)


def _random_state_run(spec, seed, index) -> dict:
    rho = verify.random_density_matrix(np.random.default_rng([seed, 3, index]), spec.dim)
    ham = core.build_hamiltonian(spec)
    passive = passivity.passive_state(rho, ham)
    return {
        "ergotropy": passivity.ergotropy(rho, ham, spec).ergotropy,
        "entropy": core.von_neumann_entropy(rho),
        "passive_is_passive": passivity.is_passive(passive, ham),
        "state_is_passive": passivity.is_passive(rho, ham),
        "free_energy": analysis.free_energy(rho, ham, spec.beta),
        "mutual_information": analysis.mutual_information_multipartite(rho, spec),
        "_state": rho, "_ham": ham, "_passive": passive, "_beta": spec.beta,
    }


def check_random_state(row: dict) -> list:
    """Every quantity against an independent dense NumPy computation."""
    entries = row["_state"].entries
    ham = row["_ham"]
    lam = np.sort(np.clip(np.linalg.eigvalsh(entries), 0.0, None))[::-1]
    energy = float(entries.diagonal().real @ ham)
    passive_energy = float(lam @ np.sort(ham))
    entropy = _entropy_of(lam)
    problems = _near(row.get("ergotropy"), energy - passive_energy, WORK_TOL, "ergotropy")
    problems += _near(row.get("entropy"), entropy, ENTROPY_TOL, "entropy")
    problems += _near(float(row["_passive"].diagonal @ ham), passive_energy, WORK_TOL,
                      "passive-state energy")
    problems += _near(row.get("free_energy"), energy - entropy / row["_beta"], WORK_TOL,
                      "free energy")
    if row.get("passive_is_passive") is not True:
        problems.append("passive state not reported passive")
    if row.get("state_is_passive") is not False:
        problems.append("random coherent state reported passive")
    if not row.get("mutual_information", -1.0) >= -ENTROPY_TOL:
        problems.append(f"negative mutual information {row.get('mutual_information')!r}")
    return problems


def _random_bipartition(rng, n):
    side = [k for k in range(1, n + 1) if rng.uniform() < 0.5]
    if not side or len(side) == n:
        side = [1]
    return analysis.Bipartition(side_a=frozenset(side), n=n)


def _separable_ppt_cell(rng, n, seed, index) -> Cell:
    spec = core.SystemSpec.qubits(n, float(rng.uniform(*BETA_RANGE)))
    split = _random_bipartition(rng, n)
    weight = float(rng.uniform())
    return Cell(f"separable-ppt/{index}/n={n}",
                partial(_separable_ppt_run, spec, split, weight), check_separable_ppt)


def _separable_ppt_run(spec, split, weight) -> dict:
    sep = families.separable_optimal_state(spec).entries
    product = families.product_thermal_state(spec).entries
    state = core.DensityMatrix(weight * sep + (1.0 - weight) * product)
    return {"min_pt_eigenvalue": analysis.min_pt_eigenvalue(state, spec, split)}


def check_separable_ppt(row: dict) -> list:
    value = row.get("min_pt_eigenvalue")
    if value is None or not value >= -PSD_TOL:
        return [f"separable mixture is NPT: min PT eigenvalue {value!r}"]
    return []


def _witness_cell(rng, n, seed, index) -> Cell:
    spec = core.SystemSpec.qubits(n, 1.0)
    beta_prime = float(rng.uniform(0.5, 2.0))
    angle = float(rng.uniform(0.0, math.pi / 2))
    return Cell(f"witness/{index}/n={n}", partial(_witness_run, spec, beta_prime, angle),
                check_witness)


def _witness_run(spec, beta_prime, angle) -> dict:
    state = core.apply_unitary(families.product_thermal_state(spec, beta_prime),
                               protocols.pair_rotation_unitary(spec, angle))
    split = analysis.Bipartition.half_split(spec.n)
    return {
        "witness": analysis.npt_witness_half_split(spec, beta_prime, angle),
        "min_pt_eigenvalue": analysis.min_pt_eigenvalue(state, spec, split),
    }


def check_witness(row: dict) -> list:
    """A positive closed-form witness must come with an NPT partial transpose."""
    if row["witness"] > 1e-9 and not row["min_pt_eigenvalue"] < -PSD_TOL:
        return [f"witness {row['witness']!r} > 0 but min PT eigenvalue "
                f"{row['min_pt_eigenvalue']!r}"]
    return []


def _beta_for_entropy_cell(rng, d, seed, index) -> Cell:
    spec = _ladder_spec(rng, 1, d)
    target = float(rng.uniform(0.001, 0.999)) * math.log(spec.d)
    return Cell(f"beta-for-entropy/{index}/d={spec.d}",
                partial(_beta_for_entropy_run, spec, target),
                partial(check_beta_for_entropy, ladder=spec.local_energies, target=target))


def _beta_for_entropy_run(spec, target) -> dict:
    return {"beta_prime": passivity.beta_for_entropy(spec, target).beta_prime}


def check_beta_for_entropy(row: dict, ladder, target: float) -> list:
    achieved = _entropy_of(_gibbs(ladder, row["beta_prime"]))
    return _near(achieved, target, ENTROPY_TOL, "Gibbs entropy at the returned beta'")


def _entropy_bound_cell(rng, n, seed, index) -> Cell:
    spec = core.SystemSpec.qubits(n, float(rng.uniform(*BETA_RANGE)))
    total = float(rng.uniform()) * n * math.log(2.0)
    return Cell(f"entropy-bound/{index}/n={n}", partial(_entropy_bound_run, spec, total),
                partial(check_entropy_bound, spec=spec, total=total))


def _entropy_bound_run(spec, total) -> dict:
    return {"bound": passivity.entropy_constrained_bound(spec, total)}


def check_entropy_bound(row: dict, spec, total: float) -> list:
    """The bound lies in [0, n E_beta] below n S(tau_beta) and is <= 0 above it."""
    top_energy = spec.n * _qubit_excited(spec.beta)
    top_entropy = spec.n * _entropy_of(_gibbs((0.0, 1.0), spec.beta))
    bound = row["bound"]
    if bound > top_energy + WORK_TOL:
        return [f"bound {bound!r} above n E_beta = {top_energy!r}"]
    if total <= top_entropy and bound < -WORK_TOL:
        return [f"bound {bound!r} negative below the thermal entropy"]
    if total > top_entropy and bound > WORK_TOL:
        return [f"bound {bound!r} positive above the thermal entropy"]
    return []


def _entropy_state_cell(rng, n, seed, index, drawn) -> Cell:
    spec = core.SystemSpec.qubits(n, float(rng.uniform(*BETA_RANGE)))
    target, reach, share, left_out = _fixed_entropy_target(rng, n, spec.beta)
    drawn.append((spec, share, left_out))
    return Cell(f"entropy-state/{index}/n={n}", partial(_entropy_state_run, spec, target),
                partial(check_entropy_state, spec=spec, target=target, reach=reach))


def _entropy_state_run(spec, target) -> dict:
    try:
        state, params = families.diagonal_state_at_entropy(spec, target)
    except InfeasibilityError as exc:
        # every target is answered today: the oracle fails this cell
        return {"infeasible": str(exc)}
    return {"shell_weight": params.shell_weight, "_diagonal": state.diagonal}


def check_entropy_state(row: dict, spec, target: float, reach: float) -> list:
    """Global entropy on target; every qubit's excitation probability thermal."""
    if "infeasible" in row:
        return _false_infeasible(target, reach, row["infeasible"])
    diag = row["_diagonal"]
    problems = _near(_entropy_of(diag), target, ENTROPY_TOL, "entropy")
    bits = (np.arange(diag.size)[:, None] >> np.arange(spec.n)) & 1
    excited = bits.T @ diag
    worst = float(np.abs(excited - _qubit_excited(spec.beta)).max())
    if not worst <= 1e-10:
        problems.append(f"marginal excitation off thermal by {worst!r}")
    return problems


def _figure1_cell(rng, n_max, seed, index) -> Cell:
    beta = float(rng.uniform(*BETA_RANGE))
    return Cell(f"figure1/{index}", partial(_figure1_run, beta, n_max),
                partial(check_figure1, beta=beta))


def _figure1_run(beta, n_max) -> dict:
    return {"rows": figures.figure1_rows(beta, n_max)}


def check_figure1(row: dict, beta: float) -> list:
    """Entangled ratio 1, separable ratio on its closed form, curves ordered."""
    problems = []
    excited = _qubit_excited(beta)
    partition = 1.0 + math.exp(-beta)
    for r in row["rows"]:
        separable = (r.n * excited - (1.0 - 1.0 / partition)) / (r.n * excited)
        problems += _near(r.entangled_ratio, 1.0, 1e-10, f"entangled ratio n={r.n}")
        problems += _near(r.separable_ratio, separable, 1e-10, f"separable ratio n={r.n}")
        if not r.separable_ratio <= r.entropy_bound_ratio + 1e-9 <= r.entangled_ratio + 2e-9:
            problems.append(f"curves out of order at n={r.n}")
    return problems


def _verify_cell(suite, seed) -> dict:
    results = verify.run_suite(suite, seed=seed)
    return {
        "check_seconds": {r.name: r.seconds for r in results},
        "failures": [f"{r.name}: {r.detail}" for r in results if not r.passed],
    }


def check_verify(row: dict) -> list:
    return list(row["failures"])
