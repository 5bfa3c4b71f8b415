"""Closed-form moment tables and seeded Monte Carlo confrontation.

This is the one module that writes a closed-form target.  Three tables
hold them all: `CORANK1_TARGETS`, the nine moments of the corank-1 shadow
as functions of n with the n at which each is known; `OCTAGON_TARGETS`,
the octagon's three; and `CONSTANT_TARGETS`, the target of every row of
`constants`.  `moments`, `verify` and `constants` read their targets from
these, and the quadrature of `quad` holds none.  `closed_form_table` and
`joint_table` return the `moments` payload as the CLI writes it, plain
dicts whose names come from `PAYLOAD_QUANTITIES` and `SHADOW_PRODUCTS`.

Every analytic moment is paired with a simulation estimate; both verify
reports go through one accept rule, `_report`: |z| < 4 on every row, and
every observed extreme inside its analytic range.  Monte Carlo is chunked
with one stream per chunk, `geometry.stream(seed, chunk index)`, so results
are bit-identical for a fixed (seed, samples) regardless of worker count.

The per-sample functionals come from the batch kernels of `functionals`:
`shadow_batch` for vl, ar, mw and `octagon_xy` for the octagon.  Both
reports also compare those closed forms with the hull oracle of `hull` on
their own seeded directions, through one rule, `_cross_check`: blocks of
HULL_BLOCK hulls on the command's workers, a failing hull named with what
replays it, the largest deviation and the fraction that pass.

One driver, `_mc`, runs both Monte Carlo estimates.  A sample is a point
of a product of spheres S^(d_1 - 1) x ... x S^(d_f - 1), given by its
factors (d_1, ..., d_f): (n,) for `mc_estimate`'s direction and (3, 3) for
`mc_octagon`'s point (x, y).  Every batch of directions is coordinate-major,
(d, m), one direction per column, from the sampler to the statistics.  The
one stream rule: a chunk draws every factor but the last for the whole
chunk, redraws included, then the last factor in blocks of at most
MC_BLOCK directions, as `geometry.draw_blocks`, the one sampler, yields
them, and runs the kernel on each block while its rows stay in cache.  The
sampler reads the stream as one batch of the chunk reads it, and yields a
direction whose norm was at most 1e-100 once more, as a block of one at its
index, after the chunk's last draw; the kernel then runs again on that
redraw.  So the octagon reads 6 normals per sample, every x of a chunk
before any y.

Each worker has one workspace, made on its first chunk and reused for
every later one, so the steady state allocates nothing.  The kernels
of `geometry` and `functionals` write into it through their `out`
arguments, and buffers whose lifetimes do not overlap share memory.  It is
two flat arrays, for a kernel of q quantities that needs s rows of scratch
(n + 2 for `shadow_batch`, 2 for `octagon_xy`):
- max(d_1 + ... + d_(f-1), 2) + q chunk rows: the leading factors, whose
  memory then becomes the two scratch rows of the statistics, and the q
  rows of results, written block by block;
- d_f + max(max_j d_j + 1, s) block rows: a block of the last factor, and
  the scratch of each draw, the (k, d) Gaussian draw and the norms, then
  the kernel's s rows.  `shadow_batch` takes the squares in the first n of
  them and writes the suffix sums over the block of directions.
That is 8 (5 CHUNK + (2n + 2) MC_BLOCK) bytes per worker for
`mc_estimate`, 3.1, 3.4, 4.1 and 45.4 MiB at n = 4, 6, 12 and 342, and
8 (5 CHUNK + 7 MC_BLOCK) bytes, 2.9 MiB, for `mc_octagon`.

Each chunk returns one record of arrays, (count, sums, m2, mins, maxs):
sums and M2 = sum (v - chunk mean)^2 over the quantities, the kernel's
rows first, then each product, and the extremes over the kernel's rows,
which are the bounded quantities (vl, ar, mw; perimeter, area).
`_accumulate` merges the records in chunk-index order with one vector
update, the rule of Chan, Golub and LeVeque (1979), and names the
quantities once, in `McResult`; the means stay the chunk-ordered sums
over N.

`threads` is the number of workers of `_parallel`, the one task runner:
at most one per task, one worker running the tasks in the calling thread
and more a pool of forked processes, each returning its results to the
parent in task order.  Its tasks are the Monte Carlo chunks of `_mc` and
the hull blocks of `_cross_check`: the hulls of `verify --n 4` and
`--octagon` run on the command's workers too, in a second pool made after
the chunks' pool is joined.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import functionals, geometry, hull
from .specfun import CATALAN, hyp3f2_unit

PI = math.pi
CHUNK = 1 << 16
SPEC_VERSION = "1.5"

# The constant zeta in E(ar^2) is the same for every n >= 3 (proved).
# Expanding E(ar^2) at dimension n gives
# zeta = 4n E[sqrt(u1^2 + u2^2) sqrt(u1^2 + u3^2)].  The marginal of
# (u1, u2, u3) is R w, with w uniform on S^2 and independent of R, and
# E[R^2] = 3/n; the integrand is homogeneous of degree 2, so zeta is 12
# times the S^2-average of sqrt(x^2 + y^2) sqrt(x^2 + z^2), free of n.
# At n = 3 it is 3 pi 3F2(-1/2, 1/2, 3/2; 1, 2; 1).
# That 3F2 equals Gamma(1/4)^4/(12 pi^3) + 16 pi/Gamma(1/4)^4 in all of
# 100 digits (identified by PSLQ), so
# zeta = Gamma(1/4)^4/(4 pi^2) + 48 pi^2/Gamma(1/4)^4 = 4K^2/pi + 3 pi/K^2
# with the singular value K = K(1/sqrt 2) = Gamma(1/4)^2/(4 sqrt pi)
# (Borwein and Borwein, Pi and the AGM, 1987).  With k' = sqrt(1 - k^2)
# and every integral over k in [0, 1], four links lead there:
# 1. Euler's integral (DLMF 16.5.2, 19.5.2): the 3F2 is
#    (8/pi^2) int k^2 E(k)/k' dk, and k^2/k' = 1/k' - k';
# 2. d/dk [k k' (E(k) + K(k))/3] = k' E(k) - K(k)/(3 k'), and the bracket
#    vanishes at both ends, so int k' E(k) dk = (1/3) int K(k)/k' dk;
# 3. int K(k)/k' dk = (pi^2/4) 3F2(1/2, 1/2, 1/2; 1, 1; 1) = K^2 (Dixon);
# 4. int E(k)/k' dk = K^2/2 + pi^2/(8 K^2): identified, the one link not
#    yet derived;
# so zeta = (24/pi) [int E(k)/k' dk - (1/3) int K(k)/k' dk].  The tests
# check each link at 50 digits.  Written as X/4 + 48/X it rounds
# correctly; 4K^2/pi + 3 pi/K^2 is 1 ulp high.
_X = (math.gamma(0.25) ** 2 / PI) ** 2
ZETA = _X / 4.0 + 48.0 / _X


# The closed forms of vl, ar and mw take Gamma((n + 1)/2), which overflows
# a double for n > 342 (Gamma(x) does for x > 171.62).
MAX_N = 342


def _check_n(n: int) -> None:
    if not 3 <= n <= MAX_N:
        raise geometry.DomainError(f"need 3 <= n <= {MAX_N}, got {n}")


def _gamma_ratio(n: int) -> float:
    return math.gamma(n / 2.0) / math.gamma((n + 1) / 2.0)


def extremes_table(n: int) -> dict:
    """Analytic min/max of vl, ar, mw for cube dimension n."""
    _check_n(n)
    coeff = functionals.segment_mw_coeff(n - 1)
    return {
        "vl": (1.0, math.sqrt(n)),
        "ar": (2.0 * (n - 1), n * (n - 1) * math.sqrt(2.0 / n)),
        "mw": (coeff * (n - 1), coeff * math.sqrt(n * (n - 1.0))),
    }


def _e_vl(n: int) -> float:
    return n / math.sqrt(PI) * _gamma_ratio(n)


def _e_mw2(n: int) -> float:
    """E(mw^2) at n = 3, 4 or 5; no general formula is known."""
    if n == 3:
        return 2.0 / PI**2 * (4.0 + ZETA)  # ZETA = 3 pi 3F2(-1/2,1/2,3/2;1,2;1)
    if n == 4:
        return 3.0 * (0.25 + PI / 8.0 + 1.0 / PI)
    f1 = ZETA / (3.0 * PI)  # 3F2(-1/2, 1/2, 3/2; 1, 2; 1)
    f2 = hyp3f2_unit(-0.5, 0.5, 1.5, 1.0, 3.0)
    return (4.0 / (81.0 * PI**4)
            * (144.0 * PI**2 - 10.0 * math.gamma(0.25) ** 4
               + 45.0 * PI**3 * (8.0 * f1 - f2)))


# The closed forms of the corank-1 shadow, the one place each is written:
# per Monte Carlo quantity, in the order of `mc_estimate`'s estimates, its
# value at dimension n and the n at which it is known (None: every n).
# E(mw) = E(vl) by duality.  A value is computed only when a caller asks
# for it at its n.
CORANK1_TARGETS = {
    "vl": (_e_vl, None),
    "ar": (lambda n: math.sqrt(PI) * (n - 1) * n / 2.0 * _gamma_ratio(n),
           None),
    "mw": (_e_vl, None),
    "vl2": (lambda n: 1.0 + 2.0 * (n - 1) / PI, None),
    "ar2": (lambda n: (4.0 * (n - 1) + (n - 2) * (n - 1) * ZETA
                       + (n - 3) * (n - 2) * (n - 1) / 2.0 * PI), None),
    "mw2": (_e_mw2, (3, 4, 5)),
    "vl_ar": (lambda n: 6.0 * (1.0 + 4.0 / PI), (4,)),
    "vl_mw": (lambda n: 9.0 / 4.0 + 2.0 / PI, (4,)),
    "ar_mw": (lambda n: 3.0 * (5.0 + 2.0 * CATALAN) / PI
              + 9.0 * PI / 4.0, (4,)),
}


def closed_form_targets(n: int) -> dict:
    """Closed-form value of every Monte Carlo quantity known at dimension
    n, in the order of `mc_estimate`'s estimates.  Takes 3 <= n <= MAX_N."""
    _check_n(n)
    return {q: value(n) for q, (value, known) in CORANK1_TARGETS.items()
            if known is None or n in known}


# The quantities of the `moments` payload, in its order, each written once:
# the table's own moments, E(mw^2) last where it is known, then the joint
# moments.  The n = 4 rows of `CONSTANT_TARGETS` take the same order.
PAYLOAD_QUANTITIES = ("vl", "vl2", "ar", "ar2", "mw", "mw2",
                      "vl_ar", "vl_mw", "ar_mw")


def closed_form_table(n: int) -> dict:
    """The closed-form moments of the corank-1 shadow of the n-cube: the
    `moments` payload itself, with keys n, e_vl, e_vl2, e_ar, e_ar2, e_mw,
    zeta_used, zeta_source, extremes and, last, e_mw2, present only for n
    in {3, 4, 5}.  Takes 3 <= n <= MAX_N, as do `extremes_table` and
    `mc_estimate`."""
    t = closed_form_targets(n)
    table = {"n": n, **{"e_" + q: t[q] for q in PAYLOAD_QUANTITIES[:5]},
             "zeta_used": ZETA, "zeta_source": "identified to 100 digits",
             "extremes": extremes_table(n)}
    if "mw2" in t:  # last: the CLI's csv and text rows keep the key order
        table["e_mw2"] = t["mw2"]
    return table


def joint_table(n: int) -> dict:
    """The joint moments known at dimension n, and the correlations they
    give, as the `moments` payload names them: at n = 4, and empty at every
    other n, where nothing is evaluated."""
    if n not in CORANK1_TARGETS["vl_ar"][1]:
        return {}
    t = closed_form_targets(n)
    sd = {q: math.sqrt(t[q + "2"] - t[q]**2) for q in ("vl", "ar", "mw")}
    joint = {q: ab for q, ab in SHADOW_PRODUCTS.items() if ab[0] != ab[1]}
    return {**{"e_" + q: t[q] for q in joint},
            **{"corr_" + q: (t[q] - t[a] * t[b]) / (sd[a] * sd[b])
               for q, (a, b) in joint.items()}}


def _at(q: str, n: int):
    return lambda: CORANK1_TARGETS[q][0](n)


# The target of every `constants` row, by row name, as a function, so that a
# suite evaluates its own targets only.  Every zeta route is checked against
# ZETA, which uses none of them; the three scaled integrals of the pi/128
# identity carry their 1/(12 pi) prefactor; each defining moment integral of
# `quad.moment_integral_suite` equals the closed form of its quantity at
# n = 4, or E(mw^2) at n = 3 or 5 for the 3- and 5-cube analogs.
CONSTANT_TARGETS = {
    **dict.fromkeys(("zeta4", "zeta3_integral", "zeta3_3f2",
                     "zeta5_reduction"), lambda: ZETA),
    "pi128_first": lambda: PI / 96.0, "pi128_second": lambda: PI / 256.0,
    "pi128_third": lambda: PI / 192.0, "pi128_combination": lambda: PI / 128.0,
    **{"integral_e_" + q: _at(q, 4) for q in PAYLOAD_QUANTITIES},
    "integral_e_mw2_3cube": _at("mw2", 3),
    "integral_e_mw2_5cube": _at("mw2", 5),
}


# ---------------------------------------------------------------------------
# Monte Carlo

@dataclass(frozen=True)
class McResult:
    samples: int
    seed: int
    estimates: dict     # name -> (mean, stderr)
    extremes_observed: dict  # name -> (min, max)


# The products whose means are the second and joint moments.
SHADOW_PRODUCTS = {"vl2": ("vl", "vl"), "ar2": ("ar", "ar"),
                   "mw2": ("mw", "mw"), "vl_ar": ("vl", "ar"),
                   "vl_mw": ("vl", "mw"), "ar_mw": ("ar", "mw")}


def _chunk_stats(values: np.ndarray, products: tuple,
                 work: np.ndarray) -> tuple:
    """One chunk's record (count, sums, m2, mins, maxs).

    values (k, m) holds k quantities of m samples, one per row, and
    `products` index pairs (a, b), each the quantity values[a] values[b].
    sums and m2 = sum (v - mean)^2 are arrays over the k rows, then the
    products; mins and maxs are arrays over the k rows.  Each product is
    formed in work[0] when its turn comes, so one row serves them all;
    work[1] holds v - mean.  `work` is two rows of length m.
    """
    product, deviation = work
    count = values.shape[1]
    sums, m2 = np.empty((2, len(values) + len(products)))
    for i, v in enumerate(itertools.chain(values, (
            np.multiply(values[a], values[b], out=product)
            for a, b in products))):
        sums[i] = v.sum()
        np.subtract(v, sums[i] / count, out=deviation)
        m2[i] = np.square(deviation, out=deviation).sum()
    return count, sums, m2, values.min(axis=1), values.max(axis=1)


def _accumulate(per_chunk: list[tuple], names: tuple, seed: int) -> McResult:
    """Reduce chunk records in chunk-index order, and name them.

    Means are the chunk-ordered sums over the total count.  The M2 vector
    is merged by the rule of Chan, Golub and LeVeque (1979),
    M2 = M2_a + M2_b + (mean_b - mean_a)^2 n_a n_b / (n_a + n_b),
    which has no sumsq/N - mean^2 cancellation.  `names` names the
    quantities in the record's order; the first len(mins) also name the
    extremes.
    """
    count, sums, m2, mins, maxs = per_chunk[0]
    sums, m2 = sums.copy(), m2.copy()
    for nb, sb, m2b, lo, hi in per_chunk[1:]:  # fixed index order
        delta = sb / nb - sums / count
        m2 += m2b + delta * delta * (count * nb / (count + nb))
        sums += sb
        count += nb
        mins, maxs = np.minimum(mins, lo), np.maximum(maxs, hi)
    stderr = np.sqrt(m2 / count / count)
    return McResult(
        samples=count, seed=seed,
        estimates={q: (float(s / count), float(e))
                   for q, s, e in zip(names, sums, stderr)},
        extremes_observed={q: (float(lo), float(hi))
                           for q, lo, hi in zip(names, mins, maxs)})


# _per_worker(make) returns make(), made on its first call: one workspace
# per worker, made in the worker and kept for all its chunks.
_per_worker = functools.cache


def _view(buf: np.ndarray, *shape: int) -> np.ndarray:
    """The leading elements of the flat buffer `buf` as a C-contiguous array."""
    return buf[:math.prod(shape)].reshape(shape)


def _in_worker(index: int):
    """The result of task `index` in a pool worker: the task list is the one
    the pool's initializer set on this function.

    The task starts on a CPU of the worker's own, by its pid.  A forked
    child starts on its parent's CPU, and on a 2-vCPU VM the scheduler left
    two workers there, each at half speed (its wall time twice its CPU
    time).  The mask is restored at once, so the scheduler may still move
    the worker.
    """
    if hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[os.getpid() % len(cpus)]})
        os.sched_setaffinity(0, cpus)
    return _in_worker.tasks[index]()


def _parallel(tasks: list, threads: int) -> list:
    """The results of the argument-free callables `tasks`, in task order,
    run by min(threads, len(tasks)) workers: the one task runner of the
    Monte Carlo chunks and the hull blocks.

    One worker runs the tasks in the calling thread.  More run them in a
    pool of forked processes, which inherit the task list through the
    pool's initializer (nothing of it is pickled) and return the results.
    The first task in task order that raises raises in the caller, at any
    worker count.  threads below 1 raises `geometry.DomainError`, the one
    range check of the CLI's --threads.
    """
    if threads < 1:
        raise geometry.DomainError("threads must be >= 1")
    workers = min(threads, len(tasks))  # a pool forks all its workers
    if workers == 1:
        return [task() for task in tasks]
    import multiprocessing  # here: commands that fork nothing skip it

    # Fork is safe here although numpy's OpenBLAS runs threads: OpenBLAS
    # stops its pool before a fork and re-arms it in the child through
    # pthread_atfork, so the hull blocks' SVDs and matrix products run in the
    # workers as in the parent, and the pool is made and joined inside this
    # call.
    # Python 3.12+ warns at each fork of a multi-threaded process.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        pool = multiprocessing.get_context("fork").Pool(
            workers, setattr, (_in_worker, "tasks", tasks))
    with pool:  # terminates and joins the workers on leaving
        return list(pool.imap(_in_worker, range(len(tasks))))


def _run_chunked(worker, names: tuple, samples: int, seed: int,
                 threads: int) -> McResult:
    """The statistics of worker(rng, m) over the chunks of `samples`, run by
    `_parallel` and merged in index order: chunk i has
    m = min(CHUNK, samples - i CHUNK) samples and the stream (seed, i).
    samples below 1 raises `geometry.DomainError`, the one range check of
    the CLI's --samples.
    """
    if samples < 1:
        raise geometry.DomainError("samples must be >= 1")

    def chunk(start):
        return worker(geometry.stream(seed, start // CHUNK),
                      min(CHUNK, samples - start))

    return _accumulate(
        _parallel([functools.partial(chunk, start)
                   for start in range(0, samples, CHUNK)], threads),
        names, seed)


# Directions per block of a Monte Carlo chunk.  A chunk is drawn, normalized
# and sent through the kernels one block at a time, so that a block's rows
# stay in cache and only the chunk's rows of results are CHUNK long.  Smaller
# blocks pay more numpy calls per direction: on one thread of a 2-vCPU box a
# chunk at n = 4, 6 and 12 took 11.2, 17.3 and 40.9 ms at 8192 and 12.4,
# 18.9 and 44.7 ms at 4096, and at n = 129, 1.8 s at 8192 and 2.9 s at 1024.
MC_BLOCK = 8192


def _mc(factors: tuple, scratch: int, kernel, names: tuple, products: dict,
        samples: int, seed: int, threads: int) -> McResult:
    """The one Monte Carlo worker: the statistics of the quantities `names`
    and of their `products` at uniform points of the product of the spheres
    S^(d - 1), one per dimension d in `factors`.

    kernel(*points, rows, work) takes the points of k samples, one (d, k)
    array per factor, and writes the k columns of the quantities into rows
    (len(names), k), with work (scratch, k) as scratch.  The module
    docstring has the stream rule and the workspace.
    """
    *lead, last = factors
    size = min(CHUNK, samples)
    block = min(MC_BLOCK, size)
    front = max(sum(lead), 2)
    pairs = tuple((names.index(a), names.index(b))
                  for a, b in products.values())
    workspace = _per_worker(lambda: (
        np.empty((front + len(names)) * size),
        np.empty((last + max(max(factors) + 1, scratch)) * block)))

    def worker(rng, m):
        c, b = workspace()
        rows, s = _view(c, front + len(names), m), b[last * block:]

        def draw(v, d):  # v(i, k) receives directions i to i + k
            return geometry.draw_blocks(
                rng, m, block,
                lambda i, k: (v(i, k), s[:d * k], s[d * k:(d + 1) * k]))

        # every factor but the last for the whole chunk, redraws included,
        # then the last block by block, the kernel on each block and redraw
        at = np.cumsum((0, *lead))
        points = [rows[a:z] for a, z in zip(at, at[1:])]
        for x in points:
            for _ in draw(lambda i, k: x[:, i:i + k], len(x)):
                pass
        for i, k in draw(lambda i, k: _view(b, last, k), last):
            kernel(*(x[:, i:i + k] for x in points), _view(b, last, k),
                   rows[front:, i:i + k], _view(s, scratch, k))
        return _chunk_stats(rows[front:], pairs, rows[:2])

    return _run_chunked(worker, (*names, *products), samples, seed, threads)


def mc_estimate(n: int, samples: int, seed: int, threads: int = 1) -> McResult:
    """Monte Carlo moments of vl, ar, mw over uniform directions.

    Estimates all nine first/second/joint moments with standard errors,
    plus observed extremes.  Deterministic for fixed (seed, samples).
    """
    _check_n(n)  # before the workspace is sized by n
    return _mc((n,), n + 2,
               lambda x, rows, work: functionals.shadow_batch(
                   x, out=((*rows, *work[n:]), work[:n], x)),
               ("vl", "ar", "mw"), SHADOW_PRODUCTS, samples, seed, threads)


def mc_octagon(samples: int, seed: int, threads: int = 1) -> McResult:
    """Monte Carlo perimeter/area moments of the rank-2 octagon shadow.

    The plane of projection is uniform on G(2, 4), so its point (x, y) of
    S^2 x S^2 is a pair of independent uniform directions of R^3.
    Perimeter and area come from `octagon_xy` (cross-checked against the
    2D hull oracle in `octagon_report` and the test suite).
    """
    return _mc((3, 3), 2,
               lambda x, y, rows, work: functionals.octagon_xy(
                   x, y, out=(*rows, *work)),
               ("perimeter", "area"),
               {"perimeter2": ("perimeter", "perimeter")},
               samples, seed, threads)


# ---------------------------------------------------------------------------
# verification report

def json_text(obj) -> str:
    """The byte-stable JSON of every payload: sorted keys, indent 2, and
    strict (a non-finite float raises instead of writing Infinity)."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


@dataclass(frozen=True)
class ReportRow:
    name: str
    closed_form: float
    estimate: float
    stderr: float
    z: float

    @property
    def passed(self) -> bool:
        return abs(self.z) < 4.0


@dataclass(frozen=True)
class VerifyReport:
    n: int
    samples: int
    seed: int
    rows: list
    hull_max_deviation: float | None
    hull_pass_rate: float | None
    passed: bool
    extremes_observed: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        d = {
            "spec_version": SPEC_VERSION,
            "n": self.n,
            "samples": self.samples,
            "seed": self.seed,
            # z is infinite when stderr is 0 (one sample); JSON has null
            "rows": [{**asdict(r), "z": r.z if math.isfinite(r.z) else None}
                     for r in self.rows],
            "pass": self.passed,
        }
        if self.hull_pass_rate is not None:
            d["hull_pass_rate"] = self.hull_pass_rate
            d["hull_max_deviation"] = self.hull_max_deviation
        if self.extremes_observed:
            d["extremes_observed"] = {k: list(v) for k, v
                                      in self.extremes_observed.items()}
        return d


# Hulls per batch call of the cross-checks, and per task of `_parallel`.  A
# batch holds every array of its hulls at once (a peak of about 1.6 MB per
# 250 3D hulls, 6.2 MB per 1000); blocks keep that fixed.  1000 hulls took
# the same time in blocks of 250 as in one block of 1000, and 4 blocks let
# up to 4 workers share them.
HULL_BLOCK = 250
# Hulls per cross-check of `verify --n 4` and `verify --octagon`, read at
# call time.
HULL_SAMPLES = 1000


def _cross_check(closed: np.ndarray, oracle, handle,
                 threads: int) -> tuple[float, float]:
    """The one comparison of the hull oracle with the closed forms.

    closed (k, m) holds k closed-form measures of m items, one item per
    column.  oracle(block), for a slice of at most HULL_BLOCK items, returns
    their k hull measures in the same order, and per item whether its hull
    has the expected combinatorics (True where none is checked).  The
    blocks are the tasks of `_parallel` on `threads` workers, and their
    deviations and pass flags are joined in block order.  A FlatInputError
    of a block is raised again with the item's index in the whole batch and
    handle(index), the text that replays it; of several, the first block's.

    Returns (the largest |hull - closed form| over items and measures, the
    fraction of items within 1e-9 on every measure and of the expected
    combinatorics).
    """
    m = closed.shape[1]

    def check(start):  # one block's deviations and pass flags
        block = slice(start, start + HULL_BLOCK)
        try:
            measures, good = oracle(block)
        except hull.FlatInputError as exc:
            raise exc.in_batch(start, handle(start + exc.index)) from exc
        dev = np.abs(np.subtract(measures, closed[:, block])).max(axis=0)
        return dev, good & (dev < 1e-9)

    dev, good = map(np.concatenate, zip(*_parallel(
        [functools.partial(check, start)
         for start in range(0, m, HULL_BLOCK)],
        threads)))
    return float(dev.max()), int(good.sum()) / m


def hull_cross_check(samples: int, seed: int,
                     threads: int = 1) -> tuple[float, float]:
    """Compare hull-derived measures with the closed-form functionals.

    The directions are one batch drawn from their own stream, and the
    closed forms come from one batch call.  Their hulls come from
    `hull.shadow_hulls`, HULL_BLOCK directions per call, so that memory does
    not grow with `samples`, and are measured by `hull.mesh_measures`;
    `_cross_check` compares the two, its blocks on `threads` workers.  A
    hull that fails raises FlatInputError naming its index and direction.

    Returns (max absolute deviation over volume/area/mean width,
    fraction of samples with the generic 14/24/12 combinatorics and
    deviation below 1e-9), the same at every worker count.
    """
    if samples < 1:
        raise geometry.DomainError("samples must be >= 1")
    rng = geometry.stream(seed, index=2**32)  # separate from MC chunks
    dirs = geometry.sample_unit_vectors(4, samples, rng)
    q = functionals.shadow_batch(dirs)
    dirs = dirs.T  # one direction per row, for the hulls and the messages

    def oracle(block):
        meshes = hull.shadow_hulls(dirs[block])
        v, e, f = meshes.counts()
        return hull.mesh_measures(meshes), (v == 14) & (e == 24) & (f == 12)

    return _cross_check(np.stack([q["vl"], q["ar"], q["mw"]]), oracle,
                        lambda i: f"direction u = {dirs[i].tolist()}",
                        threads)


def _report(n: int, mc: McResult, targets: dict, ranges: dict,
            hull_check: tuple[float, float] | None) -> VerifyReport:
    """The one accept rule of `verify`.

    Every target gets a row with z = (estimate - target) / stderr, which
    passes when |z| < 4; every observed extreme must lie in its analytic
    range (within 1e-9); and the hull cross-check, when run, must pass on
    every direction.
    """
    rows = []
    for name, target in targets.items():
        mean, stderr = mc.estimates[name]
        z = (mean - target) / stderr if stderr > 0 else math.inf
        rows.append(ReportRow(name=name, closed_form=target,
                              estimate=mean, stderr=stderr, z=z))
    hull_dev, hull_rate = hull_check or (None, None)
    in_range = all(lo - 1e-9 <= mc.extremes_observed[q][0]
                   and mc.extremes_observed[q][1] <= hi + 1e-9
                   for q, (lo, hi) in ranges.items())
    passed = (all(r.passed for r in rows) and in_range
              and hull_rate in (None, 1.0))
    return VerifyReport(n=n, samples=mc.samples, seed=mc.seed, rows=rows,
                        hull_max_deviation=hull_dev, hull_pass_rate=hull_rate,
                        passed=passed, extremes_observed=mc.extremes_observed)


def verify_report(n: int, samples: int, seed: int,
                  threads: int = 1) -> VerifyReport:
    """Confront every closed-form moment and extreme with Monte Carlo.

    For n = 4 additionally cross-checks hull-derived measures against the
    functionals on HULL_SAMPLES seeded directions, on the same `threads`.
    """
    targets = closed_form_targets(n)
    mc = mc_estimate(n, samples, seed, threads=threads)
    hull_check = (hull_cross_check(HULL_SAMPLES, seed, threads=threads)
                  if n == 4 else None)
    return _report(n, mc, targets, extremes_table(n), hull_check)


# The octagon's moments.  G(2, 4) is (S^2 x S^2)/+-1: the plane of an
# orthonormal pair is the point x = (p_12 + p_34, p_13 - p_24, p_14 + p_23),
# y = (p_12 - p_34, p_13 + p_24, p_14 - p_23) of its minors, and x and y are
# independent and uniform on S^2 when the plane is uniform.  There the area
# is sum_i max(|x_i|, |y_i|) and the perimeter sum_s |x - s y| over the four
# sign vectors s (`functionals.octagon_xy`).  By Archimedes |x_i| and |y_i|
# are i.i.d. U[0, 1], and E max(|a|, |b|) = 2/3 for such a, b, so
# E(area) = 3 * 2/3 = 2.  s y is uniform and independent of x, so
# c = x . s y ~ U[-1, 1] and E(per) = 4 E sqrt(2 - 2c) = 4 * 4/3 = 16/3.
# E(per^2) = 23 + 6G (G Catalan's constant) is identified to 35 digits from
# the (c, d) elliptic integral
# 8 + 48 (1/4 pi) int int_[-1,1]^2 (1 - cd) E(k) dc dd, not proved.
OCTAGON_RANGES = {"perimeter": (4.0, 4.0 * math.sqrt(2.0)),
                  "area": (1.0, 1.0 + math.sqrt(2.0))}
# The octagon's targets, in the order of `verify --octagon`'s rows.
OCTAGON_TARGETS = {"perimeter2": 23.0 + 6.0 * CATALAN,
                   "perimeter": 16.0 / 3.0, "area": 2.0}


def octagon_report(samples: int, seed: int,
                   threads: int = 1) -> VerifyReport:
    """Rank-2 octagon verification: perimeter^2, perimeter and area against
    their closed forms, the extremes against their ranges, plus the 2D hull
    cross-check, `_cross_check` of `hull.octagon_hull_batch`, on
    HULL_SAMPLES seeded pairs; both on `threads` workers."""
    mc = mc_octagon(samples, seed, threads=threads)
    rng = geometry.stream(seed, index=2**32 + 1)
    # the stream interleaves the pairs: u is every even draw, g every odd
    draws = geometry.sample_unit_vectors(4, 2 * HULL_SAMPLES, rng)
    u = draws[:, 0::2]
    v = geometry.complete_pairs(u, draws[:, 1::2])
    per, area = functionals.octagon_batch(u, v)
    u, v = u.T, v.T  # one pair per row, for the hulls and the messages
    hull_check = _cross_check(
        np.stack([area, per]),  # in the order of `octagon_hull_batch`
        lambda block: (hull.octagon_hull_batch(u[block], v[block]), True),
        lambda i: f"pair u = {u[i].tolist()}, v = {v[i].tolist()}",
        threads)
    return _report(4, mc, OCTAGON_TARGETS, OCTAGON_RANGES, hull_check)
