"""Control variates for subsampled Whittle log-likelihoods.

Three variates share one contract (see ``sampler.diff_estimator``).  The
zero variate makes the difference estimator a plain scaled subsample sum.
The Taylor variate replaces each group's log-likelihood with its
second-order expansion around a reference point, so evaluating the sum over
all groups costs O(dim^2) instead of a data sweep.  The coreset variate
compresses each group to a few reweighted frequencies: per-frequency terms
are sketched under a weighting distribution by random projection and the
sketch of the group total is approximated greedily on the sphere (geodesic
ascent), giving sparse non-negative weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .models import ParameterRangeError
from .whittle import GroupIndex, grad_hess


def make_groups(n_freq: int, n_groups: int) -> GroupIndex:
    """The strided partition of ``n_freq`` frequencies into ``n_groups`` groups.

    See ``whittle.GroupIndex`` for the layout and the range check.
    """
    return GroupIndex(n_freq, n_groups)


@dataclass(frozen=True)
class ZeroCV:
    """The variate that is zero everywhere: no set-up, nothing to evaluate."""

    eval_cost: ClassVar[int] = 0
    setup_evals: ClassVar[int] = 0

    def group_values(self, data, theta, u) -> np.ndarray:
        return np.zeros(len(u))

    def total(self, data, theta) -> float:
        return 0.0


@dataclass(frozen=True)
class TaylorCV:
    """Per-group quadratic surrogates a_k + b_k . delta + delta . H_k delta / 2."""

    theta_star: np.ndarray
    values: np.ndarray    # (n_groups,)
    grads: np.ndarray     # (n_groups, dim)
    hessians: np.ndarray  # (n_groups, dim, dim)
    setup_evals: int

    def __post_init__(self) -> None:
        n_groups, dim = self.grads.shape
        if self.values.shape != (n_groups,) or self.hessians.shape != (n_groups, dim, dim):
            raise ValueError("inconsistent Taylor coefficient shapes")
        object.__setattr__(self, "_total_value", float(self.values.sum()))
        object.__setattr__(self, "_total_grad", self.grads.sum(axis=0))
        object.__setattr__(self, "_total_hess", self.hessians.sum(axis=0))

    # Aggregate evaluation never touches the data, so it adds nothing to the
    # density-evaluation count.
    eval_cost: ClassVar[int] = 0

    def group_values(self, data, theta, u) -> np.ndarray:
        delta = np.asarray(theta, dtype=float) - self.theta_star
        quad = np.einsum("kij,i,j->k", self.hessians.take(u, axis=0), delta, delta)
        return self.values[u] + self.grads.take(u, axis=0) @ delta + 0.5 * quad

    def total(self, data, theta) -> float:
        delta = np.asarray(theta, dtype=float) - self.theta_star
        return float(
            self._total_value + self._total_grad @ delta + 0.5 * delta @ self._total_hess @ delta
        )


def build_taylor_cv(data, g: GroupIndex, theta_star) -> TaylorCV:
    """Expand every group around ``theta_star`` to second order (``whittle.grad_hess``).

    The one-off sweep that evaluates the expansion terms is charged as
    ``n_freq`` density evaluations, matching how chains account for it.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    values, grads, hessians = grad_hess(data, g, theta_star)
    return TaylorCV(
        theta_star=theta_star,
        values=values,
        grads=grads,
        hessians=hessians,
        setup_evals=g.n_freq,
    )


@dataclass(frozen=True)
class WeightingDistribution:
    """Gaussian measure on the unconstrained space used to sketch terms.

    Because the sampler's parameterization is unconstrained, every draw maps
    to admissible natural parameters; the truncation to the admissible set
    that a constrained parameterization would need never rejects anything.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape does not match the mean")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise ValueError("weighting covariance must be positive definite") from exc
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "_chol", chol)

    @property
    def dim(self) -> int:
        return self.mean.size

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.mean + rng.standard_normal((size, self.dim)) @ self._chol.T


def laplace_weighting(mode, hess_log_posterior) -> WeightingDistribution:
    """Gaussian(mode, (-H)^(-1)) from the curvature of the log posterior."""
    neg_hess = -np.asarray(hess_log_posterior, dtype=float)
    try:
        np.linalg.cholesky(neg_hess)
    except np.linalg.LinAlgError as exc:
        raise ValueError("log-posterior curvature is not negative definite") from exc
    return WeightingDistribution(mean=np.asarray(mode, dtype=float), cov=np.linalg.inv(neg_hess))


@dataclass(frozen=True)
class GroupProjection:
    """Random-projection sketch of one group's per-frequency terms.

    Row i of ``vectors`` is the centered term trajectory of frequency i over
    the weighting draws, scaled by 1/sqrt(RP) so that <v_i, v_i> estimates
    the variance of the term under the weighting distribution.  ``target`` is
    the row sum, the sketch of the group log-likelihood, and ``means`` holds
    the centering constants.
    """

    vectors: np.ndarray
    target: np.ndarray
    means: np.ndarray


def project_group(
    data,
    indices,
    wd: WeightingDistribution,
    n_projections: int,
    seed,
    max_rounds: int = 50,
) -> GroupProjection:
    """Sketch the terms of one frequency group under the weighting measure.

    Draws outside the model's range (``ParameterRangeError``), or with a
    term that is non-finite or too large for the sum over draws to stay
    finite (numerical overflow deep in a tail), are redrawn, in up to
    ``max_rounds`` further rounds before giving up.  Deterministic for a
    given seed.
    """
    if n_projections < 2:
        raise ValueError("need at least two projections to center")
    indices = np.asarray(indices, dtype=np.intp)
    rng = np.random.default_rng(seed)
    limit = np.finfo(float).max / n_projections
    table = np.empty((indices.size, n_projections))
    bad = np.ones(n_projections, dtype=bool)
    for _ in range(max_rounds + 1):
        # a draw whose arithmetic overflows is redrawn, so the
        # floating-point warnings carry nothing
        with np.errstate(all="ignore"):
            for slot, theta in zip(np.flatnonzero(bad), wd.sample(rng, int(bad.sum()))):
                try:
                    table[:, slot] = data.terms(theta, indices)
                except ParameterRangeError:
                    table[:, slot] = np.nan
        bad = ~np.all(np.abs(table) < limit, axis=0)
        if not bad.any():
            break
    else:
        raise ValueError("weighting draws kept producing non-finite terms")
    means = table.mean(axis=1)
    vectors = (table - means[:, None]) / math.sqrt(n_projections)
    return GroupProjection(vectors=vectors, target=vectors.sum(axis=0), means=means)


@dataclass(frozen=True)
class GigaResult:
    """Weights from greedy geodesic ascent plus its per-iteration traces."""

    weights: np.ndarray
    alignments: np.ndarray
    errors: np.ndarray


def giga(vectors: np.ndarray, target: np.ndarray, m_iter: int) -> GigaResult:
    """Approximate ``target`` by a sparse non-negative combination of rows.

    Works on the unit sphere: directions are tracked as unit vectors, each
    iteration picks the atom whose geodesic direction best aligns with the
    residual direction toward the target, and the step length has the
    closed form gamma = (z1 - z2 z3) / ((z1 - z2 z3) + (z2 - z1 z3)) with
    z1 = <Lt, vt>, z2 = <Lt, lt>, z3 = <vt, lt>.  The first iteration is the
    initialization (best-aligned single atom), so at most ``m_iter`` weights
    are non-zero.  Sphere weights are finally rescaled by <Lt, lt> ||L|| /
    ||v_i||, the optimal scaling of the found direction.
    """
    vectors = np.asarray(vectors, dtype=float)
    target = np.asarray(target, dtype=float)
    if m_iter < 1:
        raise ValueError("m_iter must be at least 1")
    norms = np.linalg.norm(vectors, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("zero-norm atoms must be excluded before calling giga")
    target_norm = float(np.linalg.norm(target))
    if target_norm == 0.0:
        raise ValueError("target must be non-zero")
    unit = vectors / norms[:, None]
    lt = target / target_norm

    base_scores = unit @ lt
    pick = int(np.argmax(base_scores))
    if base_scores[pick] <= 0.0:
        raise ValueError("no atom is positively aligned with the target")
    beta = np.zeros(vectors.shape[0])
    beta[pick] = 1.0
    direction = unit[pick].copy()
    alignments = [float(base_scores[pick])]

    for _ in range(1, m_iter):
        along = unit @ direction
        z2 = float(lt @ direction)
        resid = lt - z2 * direction
        resid_norm = np.linalg.norm(resid)
        if resid_norm < 1e-14:
            break
        geo = unit - along[:, None] * direction
        geo_norms = np.linalg.norm(geo, axis=1)
        usable = geo_norms > 1e-14
        if not np.any(usable):
            break
        scores = np.full(vectors.shape[0], -np.inf)
        scores[usable] = (geo[usable] @ (resid / resid_norm)) / geo_norms[usable]
        pick = int(np.argmax(scores))
        if scores[pick] <= 0.0:
            break
        z1, z3 = float(base_scores[pick]), float(along[pick])
        denom = (z1 - z2 * z3) + (z2 - z1 * z3)
        if denom <= 0.0:
            break
        gamma = min(max((z1 - z2 * z3) / denom, 0.0), 1.0)
        if gamma == 0.0:
            break
        stepped = (1.0 - gamma) * direction + gamma * unit[pick]
        step_norm = float(np.linalg.norm(stepped))
        beta *= (1.0 - gamma) / step_norm
        beta[pick] += gamma / step_norm
        direction = stepped / step_norm
        alignments.append(float(lt @ direction))

    alignments = np.asarray(alignments)
    weights = beta * (alignments[-1] * target_norm) / norms
    errors = target_norm * np.sqrt(np.maximum(1.0 - alignments**2, 0.0))
    return GigaResult(weights=weights, alignments=alignments, errors=errors)


@dataclass(frozen=True)
class CoresetCV:
    """Sparse reweighted frequencies approximating each group total.

    Group k retains the frequencies ``indices[offsets[k]:offsets[k + 1]]``
    (global indices) with the non-negative weights of the same slice of
    ``weights``; ``constants[k]`` carries the exact additive part: centering
    constants of all group members minus the weighted centering constants of
    the retained ones, so the surrogate matches the group log-likelihood in
    level, not just in shape.
    """

    indices: np.ndarray
    weights: np.ndarray
    offsets: np.ndarray  # (n_groups + 1,)
    constants: np.ndarray
    max_nonzeros: int
    setup_evals: int

    def __post_init__(self) -> None:
        sizes = np.diff(self.offsets)
        if self.offsets.size != self.constants.size + 1 or self.offsets[0] != 0 or np.any(sizes < 0):
            raise ValueError("offsets must start at 0 and not decrease, one group per constant")
        if not self.offsets[-1] == self.indices.size == self.weights.size:
            raise ValueError("the last offset must equal the number of indices and of weights")
        if np.any(sizes > self.max_nonzeros):
            raise ValueError("per-group weight count exceeds the iteration budget")
        if np.any(self.weights < 0):
            raise ValueError("coreset weights must be non-negative")

    @property
    def eval_cost(self) -> int:
        # Evaluating the sum over groups touches every retained frequency.
        return int(self.indices.size)

    def group_values(self, data, theta, u) -> np.ndarray:
        u = np.asarray(u, dtype=np.intp)
        bounds = list(zip(self.offsets[u].tolist(), self.offsets[u + 1].tolist()))
        terms = data.terms(theta, np.concatenate([self.indices[a:b] for a, b in bounds]))
        out, pos = self.constants[u], 0  # indexing by an array copies
        for slot, (a, b) in enumerate(bounds):
            # a dot per group adds in the order it would over that group's own terms
            out[slot] += self.weights[a:b] @ terms[pos : pos + b - a]
            pos += b - a
        return out

    def total(self, data, theta) -> float:
        return float(self.constants.sum()) + float(self.weights @ data.terms(theta, self.indices))


def build_coreset_cv(
    data,
    g: GroupIndex,
    wd: WeightingDistribution,
    m_iter: int,
    n_projections: int,
    seed,
) -> CoresetCV:
    """Sketch and compress every group; deterministic for a given seed.

    Group k draws its projections from a child of the master seed keyed by k,
    so results do not depend on evaluation order.  Atoms whose sketch has
    exactly zero norm are constant under the weighting measure and re-enter
    the surrogate through the constants instead of the weights.  Construction
    is charged ``m_iter * n_freq`` density evaluations, the sweep count of
    the greedy optimization.
    """
    children = np.random.SeedSequence(seed).spawn(g.n_groups)
    indices, weights, offsets, constants = [], [], [0], []
    for k, members in enumerate(g.groups):
        proj = project_group(data, members, wd, n_projections, children[k])
        live = np.linalg.norm(proj.vectors, axis=1) > 0.0
        const = float(proj.means.sum())
        if np.any(live) and np.linalg.norm(proj.target) > 0.0:
            result = giga(proj.vectors[live], proj.target, m_iter)
            nonzero = result.weights > 0.0
            kept, kept_w = np.flatnonzero(live)[nonzero], result.weights[nonzero]
            indices += members[kept].tolist()
            weights += kept_w.tolist()
            const -= float(kept_w @ proj.means[kept])
        offsets.append(len(indices))
        constants.append(const)
    return CoresetCV(
        indices=np.asarray(indices, dtype=np.intp),
        weights=np.asarray(weights, dtype=float),
        offsets=np.asarray(offsets, dtype=np.intp),
        constants=np.asarray(constants),
        max_nonzeros=m_iter,
        setup_evals=m_iter * g.n_freq,
    )
