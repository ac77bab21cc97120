"""No-U-Turn sampler over any target exposing a log-density and gradient.

The sampler is the multinomial variant with biased progressive state
selection: each doubling proposes a state from the new subtree with
probability proportional to the subtree's total weight ``exp(-energy)``.

Warmup interleaves dual-averaging step-size adaptation with expanding
metric windows (Stan's windowed adaptation; Betancourt, arXiv:1701.02434
section 4.2).  All chains share one inverse metric

    Sigma = D (I + U diag(lam - 1) U^T) D,

rebuilt at the end of every window from that window's draws pooled across
chains.  ``D^2`` is the pooled variance shrunk toward 1 with five
pseudo-draws; ``(lam, U)`` are the eigenpairs of the pooled sample
correlation that lie outside the Marchenko-Pastur noise band (Laloux et
al., PRL 1999) and outside ``[1/2, 2]``, ranked by ``|log lam|`` and
capped at ``_MAX_RANK``.  With no eigenpair kept the metric is diagonal.
Step size and metric both freeze before the sampling phase.

Targets are anything with a ``dim`` attribute and a ``logp_and_grad(theta)``
method returning ``(float, ndarray)``.  The contract: a finite log density
comes with a finite gradient.  A leapfrog step tests the log density
alone, and a step to a non-finite one is a divergence; a target that
cannot bound its gradient returns ``-inf`` where the gradient is not
finite, as ``FunctionTarget`` does.

The tree builder is the hot path, so it keeps its pieces in plain tuples.
A leaf state is ``(q, r, grad, logp, v, w)``: position, momentum, the
gradient and log density at ``q``, the velocity ``v = Sigma r`` (read by
the kinetic energy and the U-turn test) and ``w = Sigma grad``, so that a
leapfrog step makes one metric product.  A subtree is ``(inner, outer,
proposal, log_sum_weight, sum_accept, n_accept, cont, divergent)``.  The
earlier recursive builder, with an object per leaf and per subtree, is
kept in ``tests/_oracles.py`` as the reference that the tests hold this
one to, bit for bit.

Each chain draws from its own generator stream, but the chains advance in
lockstep, window by window, and their window draws are pooled in chain
order, so a run is a pure function of ``(target, config)`` and is
bit-reproducible; it is not a function of each chain alone.

The chains run in up to ``W = min(chains, usable CPUs)`` units, each a
``_Chains`` group served through ``forking``: unit ``w`` holds chains
``c = w (mod W)``, in a forked worker process when ``W > 1`` and in the
calling process otherwise.  The caller sends each unit the calls of its
chains and takes the replies in chain order, so every chain goes through
one loop, wherever it runs.  Each chain
counts its own gradient calls (initial point, step-size searches and
leapfrogs); the run's count, and its count at the end of warmup, are
their sums.  Between window barriers a chain depends only on its own
state and stream, so the result is the same for any worker count, one
included.  The run, window metric included, uses numpy's bundled
OpenBLAS on one thread, so it is also the same for any BLAS thread
count; with another BLAS the trace header records
``"blas_pinned": false``.  Target callables may run in
child processes, so side effects of their calls are not seen by the
caller.  ``taskset`` limits the worker count through the CPU affinity
mask.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import operator
import os
import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (DataError, DiagnosticError, ValidationError,
                     atomic_write, malformed_artifact)
# _usable_cpus is looked up here at each call, so tests can patch it.
from .forking import served
from .forking import usable_cpus as _usable_cpus
from .numerics import average_ranks, norm_ppf
from .rng import spawn
from .validation import as_name_tuple

__all__ = [
    "SamplerConfig",
    "PosteriorTrace",
    "Diagnostics",
    "FunctionTarget",
    "sample",
    "compute_diagnostics",
    "rhat",
    "ess",
]

_TRACE_MAGIC = b"CPTRACE1"

# Report at most this multiple of the nominal draw count: antithetic chains
# can push the autocorrelation-based estimate far past the sample size.
ESS_CAP_FACTOR = 10.0

_LOG_2 = math.log(2.0)

# Most correlation eigen-directions the metric keeps.  At the paper's upper
# end (J=50, p=21, dim 1,072) the first window's noise band leaves over a
# hundred directions, whose products cost more leapfrog time than they save.
_MAX_RANK = 22

# A direction must also change the metric by more than a factor of 2.
# Warmup draws are autocorrelated and come from a moving step size, so
# their correlation spectrum spreads past the band's asymptotic edges (by
# 10-30% on isotropic Gaussians); such near-edge directions are noise, and
# a metric off by less than 2x in one direction costs little.
_MIN_LOG_EIGENVALUE = math.log(2.0)

# Half-width of the uniform jitter added to each chain's starting point, so
# that the chains start apart and split-chain diagnostics stay meaningful.
_JITTER = 0.1


class FunctionTarget:
    """Adapter wrapping plain ``logp``/``grad`` callables into a target.

    It keeps the target contract (see the module docstring) for any
    callables: where the gradient is not finite, the log density is
    ``-inf``.
    """

    def __init__(self, dim: int, logp, grad):
        self.dim = dim
        self._logp = logp
        self._grad = grad

    def logp_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        logp = float(self._logp(theta))
        grad = np.asarray(self._grad(theta), dtype=np.float64)
        if not np.isfinite(grad).all():
            return -math.inf, grad
        return logp, grad


@dataclass
class SamplerConfig:
    """Sampler settings.

    Every chain starts at ``target.init_point()`` (the origin for a target
    without one) plus uniform jitter of half-width ``_JITTER`` drawn from
    its own stream.  Warmup always adapts the step size and the shared
    inverse metric (see the module docstring); nothing here switches either off.
    """

    chains: int = 4
    warmup: int = 1000
    draws: int = 2000
    target_accept: float = 0.90
    max_tree_depth: int = 10
    divergence_energy_threshold: float = 1000.0
    seed: int = 0

    def validate(self) -> None:
        if self.chains < 1:
            raise ValidationError("chains must be >= 1")
        if self.warmup < 100:
            raise ValidationError("warmup must be >= 100")
        if self.draws < 8:
            raise ValidationError("draws must be >= 8 (ess needs 8 per chain)")
        if not 0.0 < self.target_accept < 1.0:
            raise ValidationError("target_accept must be in (0, 1)")
        if self.max_tree_depth < 1:
            raise ValidationError("max_tree_depth must be >= 1")
        if not self.divergence_energy_threshold > 0.0:
            raise ValidationError("divergence_energy_threshold must be > 0")

    def to_dict(self, init_point: np.ndarray | None = None) -> dict:
        """Settings as recorded in a trace header with the chains' common
        start ``init_point`` (None for the origin); ``init`` names the start
        (``"point"`` or ``"zero"``) and ``jitter`` its half-width."""
        doc = {
            "chains": self.chains, "warmup": self.warmup, "draws": self.draws,
            "target_accept": self.target_accept,
            "max_tree_depth": self.max_tree_depth,
            "divergence_energy_threshold": self.divergence_energy_threshold,
            "seed": self.seed,
            "init": "zero" if init_point is None else "point",
            "jitter": _JITTER,
            "variant": "multinomial-biased-progressive",
        }
        if init_point is not None:
            doc["init_point"] = [float(v) for v in np.asarray(init_point)]
        return doc


@dataclass
class PosteriorTrace:
    """Retained post-warmup states of every chain.

    ``draws`` has shape ``(chains, draws, dim)`` in the documented flat
    parameter order of ``param_names``.  ``mass_diag`` has shape
    ``(chains, dim)``; each row is the diagonal of the inverse metric the
    chains sampled with, so all rows are equal.  The low-rank part of that
    metric is not stored.  ``divergent`` has shape ``(chains, draws)`` and
    the step sizes one entry per chain; any other shape, no chain or no
    draw, or a name count other than ``dim``, raises ``ValidationError``,
    as do non-finite draws and step sizes or ``mass_diag`` entries that are
    not finite and positive.
    """

    draws: np.ndarray
    divergent: np.ndarray
    step_sizes: np.ndarray
    initial_step_sizes: np.ndarray
    mass_diag: np.ndarray
    param_names: tuple[str, ...]
    seed: int
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        draws = np.asarray(self.draws, dtype=np.float64)
        if draws.ndim != 3:
            raise ValidationError("draws must have shape (chains, draws, dim)")
        if not np.isfinite(draws).all():
            raise ValidationError("trace contains non-finite draws")
        chains, n_draws, dim = draws.shape
        if chains < 1 or n_draws < 1:
            raise ValidationError(
                "a trace needs at least one chain and one draw")
        object.__setattr__(self, "draws", draws)
        for name, shape, dtype in (
                ("divergent", (chains, n_draws), bool),
                ("step_sizes", (chains,), np.float64),
                ("initial_step_sizes", (chains,), np.float64),
                ("mass_diag", (chains, dim), np.float64)):
            value = np.asarray(getattr(self, name), dtype=dtype)
            if value.shape != shape:
                raise ValidationError(
                    f"{name} has shape {value.shape}, expected {shape}")
            if dtype is np.float64 and not (np.isfinite(value)
                                            & (value > 0)).all():
                raise ValidationError(f"{name} must be finite and positive")
            object.__setattr__(self, name, value)
        names = tuple(self.param_names)
        if len(names) != dim:
            raise ValidationError(f"{len(names)} param_names for dim {dim}")
        object.__setattr__(self, "param_names", names)

    @property
    def n_chains(self) -> int:
        return self.draws.shape[0]

    @property
    def n_draws(self) -> int:
        return self.draws.shape[1]

    @property
    def dim(self) -> int:
        return self.draws.shape[2]

    def flat(self) -> np.ndarray:
        """All chains pooled: shape (chains * draws, dim)."""
        return self.draws.reshape(-1, self.dim)

    def save(self, path) -> None:
        """Binary container: JSON header then little-endian float64 payload
        in [chain][draw][param] order."""
        header = {
            "param_names": list(self.param_names),
            "chains": self.n_chains,
            "draws": self.n_draws,
            "dim": self.dim,
            "seed": self.seed,
            "config": self.config,
            "divergent_draws": [np.flatnonzero(row).tolist()
                                for row in self.divergent],
            "step_sizes": [float(v) for v in self.step_sizes],
            "initial_step_sizes": [float(v) for v in self.initial_step_sizes],
            "mass_diag": [[float(v) for v in row] for row in self.mass_diag],
        }
        blob = json.dumps(header).encode("utf-8")
        with atomic_write(path, "wb") as fh:
            fh.write(_TRACE_MAGIC)
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            fh.write(np.ascontiguousarray(self.draws, dtype="<f8").data)

    @classmethod
    def load(cls, path) -> "PosteriorTrace":
        """Inverse of ``save``; a damaged container raises ``DataError``."""
        with Path(path).open("rb") as fh, \
                malformed_artifact(f"trace container {path}"):
            if fh.read(len(_TRACE_MAGIC)) != _TRACE_MAGIC:
                raise DataError(f"{path} is not a trace container")
            (header_len,) = struct.unpack("<Q", fh.read(8))
            header = json.loads(fh.read(header_len))
            shape = tuple(operator.index(header[key])
                          for key in ("chains", "draws", "dim"))
            count = shape[0] * shape[1] * shape[2]
            payload = os.fstat(fh.fileno()).st_size - fh.tell()
            if payload != 8 * count:
                raise ValueError(f"payload holds {payload} bytes, "
                                 f"expected {8 * count}")
            # Read straight into the one float64 array the trace keeps.
            draws = np.fromfile(fh, dtype="<f8", count=count).reshape(shape)
            marks = [[operator.index(i) for i in row]
                     for row in header["divergent_draws"]]
            if len(marks) != shape[0] or not all(
                    0 <= i < shape[1] for row in marks for i in row):
                raise ValueError("divergent_draws needs one list of draw "
                                 "indices in [0, draws) per chain")
            divergent = np.zeros(shape[:2], dtype=bool)
            for c, idx in enumerate(marks):
                divergent[c, idx] = True
            return cls(draws, divergent, header["step_sizes"],
                       header["initial_step_sizes"], header["mass_diag"],
                       as_name_tuple(header["param_names"], "param_names"),
                       header["seed"], header["config"])


@dataclass
class Diagnostics:
    """Split-chain convergence summaries for every parameter.

    ``n_grad`` counts every ``logp_and_grad`` call the sampler made,
    step-size searches included; ``n_grad_warmup`` counts those made up to
    the end of warmup, and ``n_grad - n_grad_warmup`` those of sampling.
    ``n_max_depth`` counts the sampling transitions whose tree reached
    ``max_tree_depth`` (Stan's ``treedepth__ == max_treedepth``).
    """

    rhat: np.ndarray
    ess_bulk: np.ndarray
    ess_tail: np.ndarray
    n_divergent: int
    mean_accept: float
    n_grad: int = 0
    n_grad_warmup: int = 0
    n_max_depth: int = 0

    def max_rhat(self) -> float:
        return float(np.nanmax(self.rhat))

    def min_ess(self) -> float:
        return float(min(np.nanmin(self.ess_bulk), np.nanmin(self.ess_tail)))

    def to_dict(self, param_names) -> dict:
        """Every summary as JSON-ready values, per-parameter ones in the
        order of ``param_names``."""
        return {
            "param_names": list(param_names),
            "rhat": [float(v) for v in self.rhat],
            "ess_bulk": [float(v) for v in self.ess_bulk],
            "ess_tail": [float(v) for v in self.ess_tail],
            "n_divergent": int(self.n_divergent),
            "mean_accept": float(self.mean_accept),
            "n_grad": int(self.n_grad),
            "n_grad_warmup": int(self.n_grad_warmup),
            "n_max_depth": int(self.n_max_depth),
        }


# ---------------------------------------------------------------------------
# Hamiltonian pieces
# ---------------------------------------------------------------------------

class _Metric:
    """Inverse metric ``Sigma = D (I + U diag(lam - 1) U^T) D``.

    ``diag`` is ``D^2``; the orthonormal columns of ``u`` and the entries of
    ``lam`` are the ``k`` eigenpairs of the pooled draw correlation kept by
    ``_PooledMoments.metric``.  With ``k = 0`` the metric is the diagonal
    ``D^2``.
    """

    # The low-rank factors are stored transposed, (k, dim) and contiguous:
    # two ``ndarray.dot`` calls on them cost about 60% of the time of two
    # ``@`` products on the (dim, k) factors at dim 177, k = 22.
    __slots__ = ("diag", "u", "lam", "_sqrt_diag", "_du_t", "_du_scaled_t",
                 "_u_t", "_u_momentum_t")

    def __init__(self, diag: np.ndarray, u: np.ndarray | None = None,
                 lam: np.ndarray | None = None):
        self.diag = diag
        self.u = np.zeros((diag.size, 0)) if u is None else u
        self.lam = np.zeros(0) if lam is None else lam
        self._sqrt_diag = np.sqrt(diag)
        du_t = self.u.T * self._sqrt_diag
        self._du_t = np.ascontiguousarray(du_t)
        self._du_scaled_t = np.ascontiguousarray(
            du_t * (self.lam - 1.0)[:, None])
        self._u_t = np.ascontiguousarray(self.u.T)
        self._u_momentum_t = np.ascontiguousarray(
            self.u.T * (1.0 / np.sqrt(self.lam) - 1.0)[:, None])

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``Sigma @ x``."""
        out = self.diag * x
        if self.lam.size:
            out += self._du_t.dot(x).dot(self._du_scaled_t)
        return out

    def momentum(self, z: np.ndarray) -> np.ndarray:
        """Map a standard normal ``z`` to ``r ~ N(0, Sigma^-1)``:
        ``r = D^-1 (z + U ((lam^-1/2 - 1) * (U^T z)))``."""
        if self.lam.size:
            z = z + self._u_t.dot(z).dot(self._u_momentum_t)
        return z / self._sqrt_diag

    def diagonal(self) -> np.ndarray:
        """The diagonal of ``Sigma``."""
        return self.diag * (1.0 + (self.u * self.u) @ (self.lam - 1.0))


@functools.cache
def _openblas_threads():
    """The thread-count getter and setter of the OpenBLAS bundled with
    numpy, or None when numpy links another BLAS."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with the bundled OpenBLAS on one thread and restore
    the count afterwards; unpinned when that OpenBLAS is not there.

    The pooled scatter product and ``eigh`` sum in an order that follows
    the BLAS thread count; on one thread they give the same bits whatever
    count the process runs with.  ``sample`` runs under it, and the
    sampler workers it forks keep the setting.
    """
    api = _openblas_threads()
    if api is None:
        yield
        return
    get, put = api
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


class _PooledMoments:
    """Mean and scatter of one warmup window's draws pooled across chains.

    Each chain's block of draws is merged whole (the pairwise update of
    Chan, Golub & LeVeque), in chain order, so the pooled statistics cost
    one matrix product per block rather than an outer product per draw.
    """

    def __init__(self, dim: int):
        self.n = 0
        self.mean = np.zeros(dim)
        self.scatter = np.zeros((dim, dim))

    def merge(self, block: np.ndarray) -> None:
        m = block.shape[0]
        if m == 0:
            return
        block_mean = block.mean(axis=0)
        centered = block - block_mean
        total = self.n + m
        delta = block_mean - self.mean
        self.scatter += centered.T @ centered
        self.scatter += np.outer(delta, delta * (self.n * m / total))
        self.mean += delta * (m / total)
        self.n = total

    def metric(self) -> _Metric:
        """Shrunk pooled variances plus the correlation eigenpairs outside
        the Marchenko-Pastur noise band and outside ``[1/2, 2]``, at most
        ``_MAX_RANK`` of them, ranked by ``|log lam|``."""
        n, dim = self.n, self.mean.size
        if n < 2:
            return _Metric(np.ones(dim))
        scatter_diag = np.diag(self.scatter)
        var = scatter_diag / (n - 1)
        diag = (n * var + 5.0) / (n + 5.0)
        sd = np.sqrt(scatter_diag)
        inv_sd = np.divide(1.0, sd, out=np.zeros(dim), where=sd > 0.0)
        corr = self.scatter * inv_sd[:, None] * inv_sd[None, :]
        np.fill_diagonal(corr, 1.0)
        lam, vecs = np.linalg.eigh(corr)
        ratio = math.sqrt(dim / n)
        lower = (1.0 - ratio) ** 2 if n > dim else 0.0
        floor = dim * np.finfo(np.float64).eps
        size = np.abs(np.log(np.maximum(lam, floor)))
        outside = (lam > (1.0 + ratio) ** 2) | ((lam < lower) & (lam > floor))
        keep = np.flatnonzero(outside & (size > _MIN_LOG_EIGENVALUE))
        keep = keep[np.argsort(-size[keep], kind="stable")][:_MAX_RANK]
        return _Metric(diag, np.ascontiguousarray(vecs[:, keep]), lam[keep])


def _leapfrog(state: tuple, eps: float, logp_and_grad, apply) -> tuple | None:
    """One velocity-Verlet step from the leaf ``state`` (see the module
    docstring), with the target's ``logp_and_grad`` and the metric's
    ``apply``; None when the log density at the new point is not finite,
    where the target contract leaves the gradient unread."""
    q, r, grad, _, v, w = state
    half = 0.5 * eps
    v_half = v + half * w
    q_new = q + eps * v_half
    logp, grad_new = logp_and_grad(q_new)
    if not math.isfinite(logp):
        return None
    w_new = apply(grad_new)
    return (q_new, r + half * (grad + grad_new), grad_new, logp,
            v_half + half * w_new, w_new)


def _find_reasonable_step_size(target, state: tuple, inv_metric: _Metric,
                               rng: np.random.Generator) -> float:
    """Doubling/halving search for a step size with ~50% acceptance from
    the leaf ``state``, whose log density, gradient and ``Sigma grad`` are
    reused."""
    q, _, grad, logp, _, w = state
    r0 = inv_metric.momentum(rng.standard_normal(q.size))
    v0 = inv_metric.apply(r0)
    start = (q, r0, grad, logp, v0, w)
    h0 = -logp + 0.5 * float(np.dot(v0, r0))

    def accept_logprob(eps: float) -> float:
        new = _leapfrog(start, eps, target.logp_and_grad, inv_metric.apply)
        if new is None:
            return -np.inf
        return min(0.0, h0 - (-new[3] + 0.5 * float(np.dot(new[4], new[1]))))

    eps = 1.0
    log_half = math.log(0.5)
    a = 1.0 if accept_logprob(eps) > log_half else -1.0
    for _ in range(100):
        # Scale while prob^a > 2^-a, i.e. until acceptance crosses 1/2.
        if not a * accept_logprob(eps) > a * log_half:
            break
        eps *= 2.0 ** a
        if not 1e-10 < eps < 1e10:
            break
    return eps


class _DualAveraging:
    """Nesterov dual averaging on log step size from ``eps0``, shrinking
    toward ``log(10 eps0)`` with Hoffman & Gelman's published constants
    (arXiv:1111.4246 section 3.2): gamma 0.05, t0 10, kappa 0.75."""

    _GAMMA, _T0, _KAPPA = 0.05, 10.0, 0.75

    def __init__(self, eps0: float):
        self.mu = math.log(10.0 * eps0)
        self.log_eps = math.log(eps0)
        self.log_eps_bar = 0.0
        self.h_bar = 0.0
        self.t = 0

    def step(self, adapt_stat: float) -> None:
        """``adapt_stat`` is target acceptance minus observed acceptance."""
        self.t += 1
        eta = 1.0 / (self.t + self._T0)
        self.h_bar = (1.0 - eta) * self.h_bar + eta * adapt_stat
        self.log_eps = self.mu - math.sqrt(self.t) / self._GAMMA * self.h_bar
        weight = self.t ** (-self._KAPPA)
        self.log_eps_bar = (weight * self.log_eps
                            + (1.0 - weight) * self.log_eps_bar)

    @property
    def current(self) -> float:
        return math.exp(self.log_eps)

    @property
    def averaged(self) -> float:
        return math.exp(self.log_eps_bar)


def _mass_windows(warmup: int) -> list[tuple[int, int]]:
    """Expanding (25/50/100/...) metric-estimation windows inside warmup.

    Step-size-only buffers at both ends; the final window is stretched to
    meet the terminal buffer so its estimate is frozen for sampling.
    """
    init_buf, term_buf, base = 75, 50, 25
    if warmup < init_buf + term_buf + 2 * base:
        init_buf = max(1, int(0.15 * warmup))
        term_buf = max(1, int(0.10 * warmup))
        return [(init_buf, warmup - term_buf)]
    windows = []
    start, size = init_buf, base
    last = warmup - term_buf
    while True:
        end = start + size
        if end + 2 * size > last:
            windows.append((start, last))
            break
        windows.append((start, end))
        start, size = end, size * 2
    return windows


# ---------------------------------------------------------------------------
# Tree construction
# ---------------------------------------------------------------------------

def _log_add_exp(a: float, b: float) -> float:
    """Scalar ``np.logaddexp``: the same branches on ``math`` functions, so
    it returns the same bits, including for infinities and equal inputs."""
    if a == b:
        return a + _LOG_2
    diff = a - b
    if diff > 0.0:
        return a + math.log1p(math.exp(-diff))
    if diff <= 0.0:
        return b + math.log1p(math.exp(diff))
    return diff


class _Chain:
    """One chain: its position, step-size adaptation and tree builder.

    Warmup advances in blocks (``block``) so that every chain can stop at
    a window barrier, where ``adopt`` installs the shared metric; ``draw``
    finishes warmup and samples.  ``calls`` counts every ``logp_and_grad``
    the chain made: the initial point and the step-size searches go
    through the chain's own ``logp_and_grad``, and each transition adds
    its leaves, one call each.
    """

    def __init__(self, target, config: SamplerConfig,
                 rng: np.random.Generator, q0: np.ndarray, metric: _Metric):
        self.target = target
        self.config = config
        self.rng = rng
        self.metric = metric
        self.calls = 0
        logp, grad = self.logp_and_grad(q0)
        if not (np.isfinite(logp) and np.all(np.isfinite(grad))):
            raise ValidationError("target is not finite at the initial point")
        zeros = np.zeros_like(q0)
        self.state = (q0, zeros, grad, logp, zeros, metric.apply(grad))
        self.iteration = 0
        self.warmup_divergent = 0
        self.initial_eps = self._restart_step_size()
        self.eps = self.initial_eps

    def logp_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        self.calls += 1
        return self.target.logp_and_grad(theta)

    def _restart_step_size(self) -> float:
        eps0 = _find_reasonable_step_size(self, self.state, self.metric,
                                          self.rng)
        self.averaging = _DualAveraging(eps0)
        return eps0

    def adopt(self, metric: _Metric) -> None:
        """Switch to ``metric``: refresh the cached ``Sigma grad`` and restart
        step-size adaptation."""
        self.metric = metric
        q, r, grad, logp, v, _ = self.state
        self.state = (q, r, grad, logp, v, metric.apply(grad))
        self._restart_step_size()

    def warm(self, stop: int) -> np.ndarray:
        """Warmup iterations up to ``stop``; returns the position after each
        of them, one row per iteration (no rows when already at ``stop``)."""
        target_accept = self.config.target_accept
        visited = np.empty((max(stop - self.iteration, 0), self.target.dim))
        for row in visited:
            self.eps = self.averaging.current
            divergent, accept_stat, _ = self.transition()
            self.warmup_divergent += divergent
            self.averaging.step(target_accept - accept_stat)
            row[:] = self.state[0]
            self.iteration += 1
        return visited

    def block(self, start: int, end: int) -> np.ndarray:
        """The positions over warmup iterations ``[start, end)``."""
        self.warm(start)
        return self.warm(end)

    def draw(self) -> tuple:
        """Warm to the end of warmup, then make ``config.draws`` sampling
        transitions at the averaged warmup step size.  Returns the step
        size, the chain's target calls at the end of warmup, its target
        calls in all, the number of sampling transitions that reached
        ``max_tree_depth``, and the position, the divergence flag and the
        acceptance statistic of every transition, one array each."""
        warmup, n_draws = self.config.warmup, self.config.draws
        self.warm(warmup)
        if self.warmup_divergent == warmup:
            raise DiagnosticError(
                "every warmup iteration diverged; increase target_accept "
                "(for example 0.95) or reparameterize the model")
        warmup_calls = self.calls
        self.eps = self.averaging.averaged
        draws = np.empty((n_draws, self.target.dim))
        divergent = np.empty(n_draws, dtype=bool)
        accept = np.empty(n_draws)
        n_max_depth = 0
        for s in range(n_draws):
            divergent[s], accept[s], at_max = self.transition()
            n_max_depth += at_max
            draws[s] = self.state[0]
        return (self.eps, warmup_calls, self.calls, n_max_depth, draws,
                divergent, accept)

    def transition(self) -> tuple[bool, float, bool]:
        """One NUTS draw with biased progressive multinomial selection;
        moves ``state`` and returns (divergent, mean acceptance, whether
        the tree reached ``max_tree_depth``).  The last is Stan's
        ``treedepth__ == max_treedepth``: the final doubling's subtree was
        valid, whether or not the merged trajectory then turned."""
        rng, metric = self.rng, self.metric
        uniform = rng.random
        logp_and_grad, apply = self.target.logp_and_grad, metric.apply
        threshold = self.config.divergence_energy_threshold
        max_depth = self.config.max_tree_depth
        q, _, grad, logp, _, w = self.state
        r0 = metric.momentum(rng.standard_normal(self.target.dim))
        v0 = apply(r0)
        h0 = -logp + 0.5 * float(np.dot(v0, r0))

        def build(depth: int, edge: tuple, eps: float) -> tuple:
            """The subtree of ``2**depth`` leaves from ``edge`` at signed
            step ``eps``: (inner, outer, proposal, log_sum_weight,
            sum_accept, n_accept, cont, divergent)."""
            if depth == 0:
                new = _leapfrog(edge, eps, logp_and_grad, apply)
                if new is None:
                    return edge, edge, None, -math.inf, 0.0, 1, False, True
                energy_error = (-new[3] + 0.5 * float(new[4].dot(new[1]))
                                - h0)
                accept = math.exp(min(0.0, -energy_error))
                # Written so that a NaN energy, from a target that breaks
                # the contract, diverges too.
                if not energy_error <= threshold:
                    return new, new, None, -math.inf, accept, 1, False, True
                return new, new, new, -energy_error, accept, 1, True, False

            first = build(depth - 1, edge, eps)
            if not first[6]:
                return first
            inner, middle, proposal, weight, accept, n, _, _ = first
            (_, outer, proposal_2, weight_2, accept_2, n_2, cont,
             divergent) = build(depth - 1, middle, eps)
            log_sum_weight = _log_add_exp(weight, weight_2)
            if proposal_2 is not None and (
                    math.log(uniform()) < weight_2 - log_sum_weight):
                proposal = proposal_2
            if cont:
                # The classic U-turn criterion on the ends, in velocity
                # space, from the backward end to the forward one.
                lo, hi = (inner, outer) if eps > 0 else (outer, inner)
                dq = hi[0] - lo[0]
                cont = dq.dot(lo[4]) >= 0.0 and dq.dot(hi[4]) >= 0.0
            # The first half continued, so it did not diverge.
            return (inner, outer, proposal, log_sum_weight,
                    accept + accept_2, n + n_2, cont, divergent)

        minus = plus = proposal = (q, r0, grad, logp, v0, w)
        log_sum_weight = 0.0
        sum_accept, n_accept = 0.0, 0
        step = self.eps
        for depth in range(max_depth):
            forward = uniform() < 0.5
            (_, outer, sub_proposal, weight, accept, n, cont,
             divergent) = build(depth, plus if forward else minus,
                                step if forward else -step)
            sum_accept += accept
            n_accept += n
            if not cont:
                break
            # Biased progressive sampling favors the fresh subtree.
            if (weight > log_sum_weight
                    or math.log(uniform()) < weight - log_sum_weight):
                proposal = sub_proposal
            log_sum_weight = _log_add_exp(log_sum_weight, weight)
            if forward:
                plus = outer
            else:
                minus = outer
            dq = plus[0] - minus[0]
            if not (dq.dot(minus[4]) >= 0.0 and dq.dot(plus[4]) >= 0.0):
                break
        # Every leaf made one gradient call and counts once in n_accept.
        self.calls += n_accept
        self.state = proposal
        at_max = depth == max_depth - 1 and bool(cont)
        return divergent, sum_accept / n_accept, at_max


class _Chains:
    """The chains of one unit, served through ``forking``: ``block`` and
    ``draw`` run the unit's chain ``i``, and ``adopt`` gives all of them
    the window's metric."""

    def __init__(self, chains: list[_Chain]):
        self.chains = chains

    def block(self, i: int, start: int, end: int) -> np.ndarray:
        return self.chains[i].block(start, end)

    def adopt(self, metric: _Metric) -> None:
        for chain in self.chains:
            chain.adopt(metric)

    def draw(self, i: int) -> tuple:
        return self.chains[i].draw()


def sample(target, config: SamplerConfig,
           param_names=None) -> tuple[PosteriorTrace, Diagnostics]:
    """Run NUTS chains on ``target`` and compute convergence diagnostics.

    Warmup draws are discarded; the trace holds exactly ``chains x draws``
    post-warmup states.  The chains advance in lockstep through the warmup
    windows: at each window's end the shared metric is rebuilt from that
    window's draws of every chain, pooled in chain order.  Each chain keeps
    its own generator stream, so identical ``(target, config)`` produce
    bit-identical traces.

    The chains are built here, then run in ``W = min(chains, usable
    CPUs)`` forked worker processes (in this process when ``W`` is 1);
    the trace, diagnostics and gradient-call count are the same for any
    ``W``.  ``target`` may therefore be called in child processes, and
    side effects of its calls there are not seen by the caller.
    """
    config.validate()
    dim = target.dim
    init_point = target.init_point() if hasattr(target, "init_point") else None
    base = (np.zeros(dim) if init_point is None
            else np.asarray(init_point, dtype=np.float64))
    if base.shape != (dim,):
        raise ValidationError(
            f"init_point has shape {base.shape}, expected ({dim},)")
    if param_names is None:
        param_names = tuple(f"theta[{i}]" for i in range(dim))
    elif len(param_names) != dim:
        raise ValidationError("param_names length must equal target dim")

    rngs = spawn(config.seed, config.chains)
    starts = [base + rngs[c].uniform(-_JITTER, _JITTER, dim)
              for c in range(config.chains)]
    metric = _Metric(np.ones(dim))
    chains = [_Chain(target, config, rngs[c], starts[c], metric)
              for c in range(config.chains)]
    initial_step_sizes = np.array([chain.initial_eps for chain in chains])

    draws = np.empty((config.chains, config.draws, dim))
    divergent = np.empty((config.chains, config.draws), dtype=bool)
    accept = np.empty((config.chains, config.draws))
    windows = _mass_windows(config.warmup)
    n_workers = min(config.chains, _usable_cpus())
    # Chain c runs in unit c mod W, as chain c // W of that unit.  The
    # workers fork inside the one-BLAS-thread block and keep its setting.
    placed = [(c % n_workers, c // n_workers) for c in range(config.chains)]
    groups = [_Chains(chains[w::n_workers]) for w in range(n_workers)]
    with (_one_blas_thread(),
          served(groups, "sampler worker", n_workers > 1) as units):
        for start, end in windows:
            for w, i in placed:
                units[w].call("block", i, start, end)
            moments = _PooledMoments(dim)
            for w, _ in placed:
                moments.merge(units[w].result())
            metric = moments.metric()
            for unit in units:
                unit.call("adopt", metric)
            for unit in units:
                unit.result()
        for w, i in placed:
            units[w].call("draw", i)
        replies = []
        for c, (w, _) in enumerate(placed):
            *reply, draws[c], divergent[c], accept[c] = units[w].result()
            replies.append(reply)
    step_sizes, warmup_calls, calls, max_depths = zip(*replies)

    header = config.to_dict(init_point)
    if _openblas_threads() is None:
        header["blas_pinned"] = False
    trace = PosteriorTrace(
        draws=draws,
        divergent=divergent,
        step_sizes=np.array(step_sizes),
        initial_step_sizes=initial_step_sizes,
        mass_diag=np.tile(metric.diagonal(), (config.chains, 1)),
        param_names=tuple(param_names),
        seed=config.seed,
        config=header,
    )
    # Diagnostics.mean_accept is the mean of the per-chain means.
    mean_accept = float(np.mean([row.mean() for row in accept]))
    return trace, compute_diagnostics(trace, mean_accept, sum(calls),
                                      sum(warmup_calls), sum(max_depths))


def compute_diagnostics(trace: PosteriorTrace, mean_accept: float = math.nan,
                        n_grad: int = 0, n_grad_warmup: int = 0,
                        n_max_depth: int = 0) -> Diagnostics:
    """Per-parameter split R-hat and bulk/tail ESS for a stored trace."""
    dim = trace.dim
    rhats = np.full(dim, np.nan)
    bulk = np.empty(dim)
    tail = np.empty(dim)
    for d in range(dim):
        chains = trace.draws[:, :, d]
        if trace.n_chains >= 2 and trace.n_draws >= 4:
            rhats[d] = rhat(chains)
        bulk[d], tail[d] = ess(chains)
    return Diagnostics(rhats, bulk, tail, int(trace.divergent.sum()),
                       mean_accept, n_grad, n_grad_warmup, n_max_depth)


# ---------------------------------------------------------------------------
# Convergence diagnostics
# ---------------------------------------------------------------------------

def _split_chains(chains: np.ndarray) -> np.ndarray:
    """Halve every chain; drops one trailing draw per chain when odd."""
    half = chains.shape[1] // 2
    return np.concatenate([chains[:, :half], chains[:, half:2 * half]], axis=0)


def rhat(chain_draws) -> float:
    """Split-chain potential scale reduction factor.

    Every chain is halved (``2C`` pseudo-chains of length ``N = S // 2``)
    and ``sqrt((N-1)/N + B/(N W))`` is returned, with ``B`` and ``W`` the
    standard between/within mean squares over the split chains.  Constant
    chains yield ``inf`` with a warning.
    """
    chains = np.asarray(chain_draws, dtype=np.float64)
    if chains.ndim != 2 or chains.shape[0] < 2 or chains.shape[1] < 4:
        raise ValidationError("rhat needs a (chains >= 2, draws >= 4) array")
    split = _split_chains(chains)
    n = split.shape[1]
    means = split.mean(axis=1)
    w = float(split.var(axis=1, ddof=1).mean())
    if w <= 0.0:
        warnings.warn("zero within-chain variance; rhat undefined", stacklevel=2)
        return math.inf
    b = n * float(means.var(ddof=1))
    return math.sqrt((n - 1) / n + b / (n * w))


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance (denominator n) of one chain via FFT."""
    n = x.size
    centered = x - x.mean()
    size = 1
    while size < 2 * n:
        size <<= 1
    f = np.fft.rfft(centered, size)
    acov = np.fft.irfft(f * np.conjugate(f), size)[:n]
    return acov / n


def _ess_from_chains(chains: np.ndarray) -> float:
    """Combined-chain ESS with Geyer initial-monotone pair truncation."""
    c, n = chains.shape
    acov = np.stack([_autocovariance(chains[i]) for i in range(c)])
    mean_var = float((acov[:, 0] * n / (n - 1.0)).mean())
    var_plus = mean_var * (n - 1.0) / n
    if c > 1:
        var_plus += float(chains.mean(axis=1).var(ddof=1))
    if var_plus <= 0.0 or mean_var <= 0.0:
        warnings.warn("constant draws; ess reported as 0", stacklevel=2)
        return 0.0

    rho = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    # Geyer: sum the pair sums up to the first that is not positive, each
    # capped by the ones before it; cumsum adds them left to right.
    half = rho.size // 2
    pairs = rho[0:2 * half:2] + rho[1:2 * half:2]
    positive = pairs > 0.0
    stop = half if positive.all() else int(np.argmin(positive))
    capped = np.minimum.accumulate(pairs[:stop])
    total = float(np.cumsum(capped)[-1]) if stop else 0.0
    tau = max(-1.0 + 2.0 * total, 1.0 / ESS_CAP_FACTOR)
    return float(min(c * n / tau, ESS_CAP_FACTOR * c * n))


def _rank_normalize(chains: np.ndarray) -> np.ndarray:
    """Average-tie ranks mapped through the normal quantile function."""
    flat = chains.reshape(-1)
    ranks = average_ranks(flat)
    z = norm_ppf((ranks - 0.375) / (flat.size + 0.25))
    return z.reshape(chains.shape)


def ess(chain_draws) -> tuple[float, float]:
    """Bulk and tail effective sample sizes.

    Bulk ESS runs the autocorrelation estimator on rank-normalized draws;
    tail ESS is the smaller of the ESS of the 5% and 95% quantile
    indicator sequences.  Estimates are capped at
    ``ESS_CAP_FACTOR * chains * draws``; constant input reports 0 with a
    warning.
    """
    chains = np.asarray(chain_draws, dtype=np.float64)
    if chains.ndim != 2:
        raise ValidationError("ess needs a (chains, draws) array")
    if chains.shape[1] < 8:
        raise ValidationError("ess needs at least 8 draws per chain")
    if np.all(chains == chains.reshape(-1)[0]):
        warnings.warn("constant draws; ess reported as 0", stacklevel=2)
        return 0.0, 0.0
    bulk = _ess_from_chains(_rank_normalize(chains))
    q05, q95 = np.quantile(chains.reshape(-1), [0.05, 0.95])
    tails = []
    for q in (q05, q95):
        indicator = (chains <= q).astype(np.float64)
        if np.all(indicator == indicator.reshape(-1)[0]):
            tails.append(0.0)
        else:
            tails.append(_ess_from_chains(indicator))
    return bulk, float(min(tails))
