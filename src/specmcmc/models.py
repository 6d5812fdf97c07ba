"""Model families, their spectral densities, and the unconstrained parameterization.

Every sampler runs in an unconstrained space: AR and MA blocks are stored as
arctanh of partial autocorrelations (so stationarity and invertibility hold by
construction), variances and the tempering rate on the log scale, and the
memory parameter either as d_tilde with d = 0.5*tanh(d_tilde) (ARFIMA, keeping
d inside the stationary band) or directly (ARTFIMA, where any real d is
admissible).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import add

import numpy as np

LOG_TWO_PI = math.log(2.0 * math.pi)

FRACTIONAL_KINDS = ("none", "arfima", "artfima")


@dataclass(frozen=True)
class ModelSpec:
    """Structural choices: ARMA orders, fractional behaviour, volatility wrapper.

    ``ar_order`` counts autoregressive lags, ``ma_order`` moving-average lags.
    ``fractional`` selects plain ARMA ("none"), ARFIMA ("arfima") or tempered
    fractional ARTFIMA ("artfima").  ``sv_wrapper`` adds the additive noise
    floor used when fitting log squared returns of a volatility model.
    """

    ar_order: int
    ma_order: int
    fractional: str = "none"
    sv_wrapper: bool = False

    def __post_init__(self) -> None:
        if self.ar_order < 0 or self.ma_order < 0:
            raise ValueError("model orders must be non-negative")
        if self.fractional not in FRACTIONAL_KINDS:
            raise ValueError(f"fractional must be one of {FRACTIONAL_KINDS}")

    @cached_property  # read on every decode and prior evaluation
    def n_params(self) -> int:
        extra = {"none": 0, "arfima": 1, "artfima": 2}[self.fractional]
        return self.ar_order + self.ma_order + extra + 1 + int(self.sv_wrapper)

    def param_names(self) -> tuple[str, ...]:
        names = [f"phi_tilde_{i}" for i in range(1, self.ar_order + 1)]
        names += [f"theta_tilde_{j}" for j in range(1, self.ma_order + 1)]
        if self.fractional == "arfima":
            names.append("d_tilde")
        elif self.fractional == "artfima":
            names += ["d", "log_lambda"]
        names.append("log_sigma2")
        if self.sv_wrapper:
            names.append("log_sigma2_eps")
        return tuple(names)


@dataclass(frozen=True)
class NaturalParams:
    """Parameters on their natural scale.

    ``lambda_`` is None unless the model is tempered; ``sigma2_eps`` is None
    without the volatility wrapper; ``d`` is 0.0 for plain ARMA.
    """

    phi: np.ndarray
    theta: np.ndarray
    d: float
    lambda_: float | None
    sigma2: float
    sigma2_eps: float | None

    def __post_init__(self) -> None:
        for name in ("phi", "theta"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if not all(map(math.isfinite, arr.ravel().tolist())):  # Python floats: cheaper
                raise ValueError(f"{name} contains non-finite values")
            object.__setattr__(self, name, arr.reshape(1) if arr.ndim == 0 else arr)
        if not self.sigma2 > 0:
            raise ValueError("sigma2 must be positive")
        if self.lambda_ is not None and not self.lambda_ > 0:
            raise ValueError("lambda_ must be positive when present")
        if self.sigma2_eps is not None and not self.sigma2_eps > 0:
            raise ValueError("sigma2_eps must be positive when present")


def _float_sum(values) -> float:
    """Sum of floats in the order of numpy's float64 ``np.sum``, so equal to it bit for bit.

    Under 8 numbers one by one onto 0.0, up to 128 in eight interleaved partial sums
    added pairwise then the tail, above that as two halves split at a multiple of 8.
    """
    n = len(values)
    if n < 8:
        return reduce(add, values, 0.0)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _float_sum(values[:half]) + _float_sum(values[half:])
    r = [reduce(add, values[lane : n - n % 8 : 8]) for lane in range(8)]
    head = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return reduce(add, values[n - n % 8 :], 0.0 + head)  # numpy's start 0.0 makes -0.0 into 0.0


def _durbin_levinson(pacf) -> list[float]:
    """:func:`pacf_to_ar` on Python floats: numpy's per-call cost would dominate orders this small."""
    coeffs: list[float] = []
    for r in map(float, pacf):
        coeffs = [c - r * b for c, b in zip(coeffs, coeffs[::-1])] + [r] if coeffs else [r]
    return coeffs


def pacf_to_ar(pacf) -> np.ndarray:
    """Map partial autocorrelations to AR coefficients (Durbin-Levinson).

    phi_k^(k) = pacf_k and phi_j^(k) = phi_j^(k-1) - pacf_k * phi_{k-j}^(k-1);
    any pacf in (-1, 1)^q yields a stationary coefficient vector.
    """
    return np.array(_durbin_levinson(pacf), dtype=float)


def _pacf_to_ar_derivatives(pacf) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivatives of :func:`pacf_to_ar`: d phi_i / d pacf_l and d2 phi_i / d pacf_l d pacf_m.

    Differentiates the Durbin-Levinson step alongside it: c_i - r_k c_{k-1-i} has derivative J_il -
    r_k J_{k-1-i,l} - [l = k] c_{k-1-i} and second K_ilm - r_k K_{k-1-i,lm} - [l = k] J_{k-1-i,m} - [m = k] J_{k-1-i,l}.
    """
    pacf = np.asarray(pacf, dtype=float)
    coeffs, jac, second = np.zeros(0), np.zeros((0, pacf.size)), np.zeros((0, pacf.size, pacf.size))
    for k, r in enumerate(pacf.tolist()):
        step = np.zeros((k + 1, pacf.size))
        step[:k] = jac - r * jac[::-1]
        step[:k, k] -= coeffs[::-1]
        step[k, k] = 1.0
        curv = np.zeros((k + 1, pacf.size, pacf.size))
        curv[:k] = second - r * second[::-1]
        curv[:k, k, :] -= jac[::-1]
        curv[:k, :, k] -= jac[::-1]
        coeffs, jac, second = np.append(coeffs - r * coeffs[::-1], r), step, curv
    return jac, second


def _sech2(x: np.ndarray) -> np.ndarray:
    """1 - tanh(x)^2 as 4 e^(-2|x|) / (1 + e^(-2|x|))^2, which keeps its tail."""
    e = np.exp(-2.0 * np.abs(x))
    return 4.0 * e / (1.0 + e) ** 2


class ParameterRangeError(ValueError):
    """A log-scale coordinate whose exp overflows or underflows a float.

    Samplers treat it as a proposal outside the model's range, with log
    target -inf; everywhere else it is an ordinary ``ValueError``.
    """


def _exp_positive(value: float, name: str) -> float:
    """exp of a log-scale coordinate, which must be a normal positive float."""
    try:
        out = math.exp(value)
    except OverflowError:
        raise ParameterRangeError(f"{name} = exp({value:g}) overflows") from None
    if out < sys.float_info.min:
        raise ParameterRangeError(f"{name} = exp({value:g}) underflows")
    return out


def to_natural(spec: ModelSpec, vector) -> NaturalParams:
    """Decode an unconstrained vector into natural-scale parameters.

    Raises :class:`ParameterRangeError` when a log-scale coordinate (log
    sigma2, log lambda, log sigma2_eps) is too large or too small for its exp
    to be a normal float.  Every proposal is decoded here, so the work stays on
    Python floats, phi and theta are views of one array, and the result skips
    :class:`NaturalParams`' checks, which its values pass by construction.
    """
    vector = np.asarray(vector, dtype=float)
    if vector.shape != (spec.n_params,):
        raise ValueError(f"expected {spec.n_params} parameters, got shape {vector.shape}")
    values = vector.tolist()
    if not all(map(math.isfinite, values)):
        raise ValueError("parameter vector contains non-finite entries")
    q, p = spec.ar_order, spec.ma_order
    pacf = np.tanh(vector[: q + p]).tolist()  # elementwise, so one call serves both blocks
    # The MA polynomial is 1 + theta_1 z + ...; negating the stationary AR
    # image of the reflected pacf keeps every root outside the unit circle.
    coeffs = np.array(_durbin_levinson(pacf[:q]) + [-c for c in _durbin_levinson([-r for r in pacf[q:]])])
    pos = q + p
    d, lambda_ = 0.0, None
    if spec.fractional == "arfima":
        d = 0.5 * math.tanh(values[pos])
        pos += 1
    elif spec.fractional == "artfima":
        d = values[pos]
        lambda_ = _exp_positive(values[pos + 1], "lambda")
        pos += 2
    sigma2 = _exp_positive(values[pos], "sigma2")
    pos += 1
    sigma2_eps = _exp_positive(values[pos], "sigma2_eps") if spec.sv_wrapper else None
    nat = object.__new__(NaturalParams)
    vars(nat).update(phi=coeffs[:q], theta=coeffs[q:], d=d, lambda_=lambda_, sigma2=sigma2, sigma2_eps=sigma2_eps)
    return nat


def trig_table(spec: ModelSpec, omegas) -> np.ndarray:
    """Theta-independent factors of the density at each frequency, one row each.

    With order = max(p, q), rows 0..order-1 hold cos(k*omega) and rows
    order..2*order-1 hold sin(k*omega) for k = 1..order; the last row holds
    sin(omega/2)^2, or for ARFIMA, whose untempered factor has no parameter,
    its log L = log(4 sin(omega/2)^2).  Columns are frequencies, so the table
    of a frequency subset is one ``np.take`` along axis 1.
    """
    omegas = np.asarray(omegas, dtype=float)
    order = max(spec.ar_order, spec.ma_order)
    table = np.empty((2 * order + 1, omegas.size))
    angles = np.arange(1, order + 1)[:, None] * omegas
    np.cos(angles, out=table[:order])
    np.sin(angles, out=table[order : 2 * order])
    np.square(np.sin(0.5 * omegas), out=table[2 * order])
    if spec.fractional == "arfima":
        np.log(np.multiply(table[2 * order], 4.0, out=table[2 * order]), out=table[2 * order])
    return table


def _circle_parts(coef, cos, sin, re, im, tmp) -> None:
    """1 + sum_k coef_k cos k*omega into ``re`` and sum_k coef_k sin k*omega into ``im``.

    These are the real part and minus the imaginary part of
    1 + sum_k coef_k exp(-i*k*omega).  ``tmp`` is scratch for orders above one.
    """
    np.multiply(cos[0], coef[0], out=re)
    np.multiply(sin[0], coef[0], out=im)
    for k in range(1, coef.size):
        re += np.multiply(cos[k], coef[k], out=tmp)
        im += np.multiply(sin[k], coef[k], out=tmp)
    re += 1.0


def _circle_power(coef, cos, sin, re, im, tmp) -> np.ndarray:
    """|1 + sum_k coef_k exp(-i*k*omega)|^2 into ``re``; ``im`` is overwritten.

    Computed as (1 + sum_k coef_k cos k*omega)^2 + (sum_k coef_k sin k*omega)^2,
    which has the conditioning of the complex form.
    """
    _circle_parts(coef, cos, sin, re, im, tmp)
    np.square(re, out=re)
    np.square(im, out=im)
    re += im
    return re


def _temper(lambda_, half_sin2, out) -> np.ndarray:
    """T = expm1(-lambda)^2 + 4 exp(-lambda) sin(omega/2)^2 into ``out``."""
    np.multiply(half_sin2, 4.0 * math.exp(-lambda_), out=out)
    out += math.expm1(-lambda_) ** 2
    return out


def density_from_trig(spec: ModelSpec, nat: NaturalParams, trig: np.ndarray, ordinates=None, buf=None):
    """log f, or the Whittle terms, at the columns of a :func:`trig_table`, with L and f.

    f(omega) = B(omega) * T(omega)^(-d) (+ sigma2_eps/(2*pi) if wrapped), with
    B = sigma2/(2*pi) * |theta(z)|^2 / |phi(z)|^2, z = exp(-i*omega),
    theta(z) = 1 + sum theta_j z^j, phi(z) = 1 - sum phi_i z^i, and
    T(omega) = |1 - exp(-(lambda + i*omega))|^2 written as :func:`_temper`, accurate
    as omega -> 0 (lambda = 0 for ARFIMA, whose L the table holds).

    Returns (row, L, f): ``row`` is log f, or given the periodogram ``ordinates`` I
    the Whittle terms -(log f + I/f); L is returned for fractional models, and f
    where it is kept (without ``ordinates``, or wrapped), each None otherwise.
    Everything lives in one (2, 2, n) array, ``buf`` or a new one: ``row`` is
    buf[0, 0], I/f is buf[0, 1] and buf[1] is scratch, which holds f where it is
    kept.  One allocation, as two per call can make glibc trim the heap and fault
    it back in on every call.  The fractional factor stays in log space: L = log T
    is one log per frequency, log f = log B - d*L and I/f = I * exp(-log f), and no
    power is taken.  f itself is formed and logged for ARMA models, at d = 0
    (giving ARMA's bytes) and wrapped (f = B * exp(-d*L) + c).
    """
    buf = np.empty((2, 2, trig.shape[1])) if buf is None else buf
    out, work = buf[0], buf[1]  # indexed: unpacking iterates the array, which is slower
    order = (trig.shape[0] - 1) // 2
    cos, sin, last = trig[:order], trig[order : 2 * order], trig[2 * order]
    keep = ordinates is None or spec.sv_wrapper  # else f goes where the terms go, logged in place
    dens, spare = (work[0], (out[0], out[1])) if keep else (out[0], (out[1], work[0]))
    base = nat.sigma2 / (2.0 * np.pi)
    if nat.phi.size:
        base = np.divide(base, _circle_power(-nat.phi, cos, sin, dens, *spare), out=dens)
    if nat.theta.size:
        base = np.multiply(base, _circle_power(nat.theta, cos, sin, *spare, work[1]), out=dens)
    log_temper = last if spec.fractional == "arfima" else None
    if spec.fractional == "artfima":
        log_temper = np.log(_temper(nat.lambda_, last, work[1]), out=work[1])
    if log_temper is not None and nat.d != 0.0:
        if spec.sv_wrapper:
            factor = np.multiply(log_temper, -nat.d, out=out[0])
            base = np.multiply(np.exp(factor, out=factor), base, out=dens)
        else:
            scaled = np.multiply(log_temper, nat.d, out=out[1])
            log_base = np.log(base, out=base) if base is dens else math.log(base)
            if ordinates is None:
                np.subtract(log_base, scaled, out=out[0])
            else:
                minus_log = np.subtract(scaled, log_base, out=out[0])
                ratio = np.multiply(np.exp(minus_log, out=out[1]), ordinates, out=out[1])
                np.subtract(minus_log, ratio, out=out[0])
            return out[0], log_temper, None
    if base is not dens:
        dens.fill(base)
    if spec.sv_wrapper:
        dens += nat.sigma2_eps / (2.0 * np.pi)
    if ordinates is None:
        np.log(dens, out=out[0])
    else:
        ratio = np.divide(ordinates, dens, out=out[1])
        terms = np.log(dens, out=out[0])
        terms += ratio
        np.negative(terms, out=terms)
    return out[0], log_temper, dens if keep else None


def _gram(rows, weight, dot, scratch) -> np.ndarray:
    """sum_k weight_k rows_ik rows_jk for every pair of rows, shape (..., k, k), one row's products at a time."""
    upper = [dot(rows[i:], np.multiply(rows[i], weight, out=scratch)).T for i in range(len(rows))]
    out = np.empty(upper[0].shape[:-1] + (len(rows), len(rows)))
    for i, part in enumerate(upper):
        out[..., i, i:] = out[..., i:, i] = part
    return out


def whittle_derivatives(
    spec: ModelSpec, vector, nat: NaturalParams, trig: np.ndarray, ordinates, total, dot
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whittle log-likelihood sum_k ell_k with its gradient and Hessian in the unconstrained vector, from one pass.

    ``nat`` is the decoded ``vector``; ``trig`` holds the columns of a :func:`trig_table`
    and ``ordinates`` their I.  Frequency sums go through ``total(x)`` and ``dot(a, b)``,
    whole (``np.sum``, ``np.matmul``) or per group, which adds a leading n_groups
    axis; the value is ``total`` of :func:`density_from_trig`'s terms.  With w_k =
    I_k/f_k - 1 = d ell_k / d log f_k, where ell_k = -(log f_k + I_k/f_k) has second
    derivative -(w_k + 1), the Hessian is sum_k w_k hess log f_k - (w_k + 1) grad log
    f_k grad log f_k^T.  Besides the kernel's rows and three of scratch it uses one
    (dim, n) block, grad log f per frequency in natural coordinates.  Blocks are
    contracted as formed:

    - AR and MA, with parts re, im (:func:`_circle_parts`) and power P of
      1 + sum_j c_j exp(-i*j*omega): g_j = d log P / d c_j = 2 (re cos j*omega
      + im sin j*omega) / P, d2 log P / d c_j d c_l = 2 cos((j - l) omega) / P
      - g_j g_l; the AR power enters log f negated, at c = -phi.
    - d log f / d d = -L, also at d = 0.  With M = lambda T'/T, T' =
      -2 expm1(-lambda) e^-lambda - 4 e^-lambda sin(omega/2)^2, log lambda has
      gradient -d M, cross term -M with d and curvature -d ((1 - lambda) M -
      M^2 + 2 lambda^2 e^(-2 lambda) / T).  d log f / d log sigma2 = 1.
    - The wrapper f = f_b + c, s = f_b/f: grad log f = (s grad log f_b, 1 - s)
      and hess log f = s hess log f_b + s (1 - s) v v^T, v = (grad log f_b, -1).

    The chain rule through tanh, the PACF maps (:func:`_pacf_to_ar_derivatives`)
    and d = 0.5 tanh(d_tilde) works on a few numbers; as tanh'' = -2 tanh tanh',
    each tanh coordinate x adds -2 tanh(x) times its gradient to its diagonal.
    """
    n = trig.shape[1]
    buf = np.empty((7, n))  # the kernel's (2, 2, n), then scratch
    rows = np.empty((spec.n_params, n))
    terms, log_temper, dens = density_from_trig(spec, nat, trig, ordinates, buf[:4].reshape(2, 2, n))
    weights = buf[1]  # I/f, then w
    value = total(terms)
    weights -= 1.0
    work = (terms, buf[4], buf[5], buf[6])
    order = (trig.shape[0] - 1) // 2
    cos, sin, half_sin2 = trig[:order], trig[order : 2 * order], trig[2 * order]
    vector = np.asarray(vector, dtype=float)
    dim, base = spec.n_params, spec.n_params - spec.sv_wrapper  # base: the coordinates of f_b
    if spec.sv_wrapper:
        # weights * c/f, then weights * (1 - c/f) for the base density; c/f stays in the last row
        noise = np.divide(nat.sigma2_eps / (2.0 * np.pi), dens, out=rows[base])
        np.multiply(noise, weights, out=dens)
        noise_score = total(dens)
        weights -= dens
    scale_score = total(weights)
    grad = np.empty(np.shape(scale_score) + (dim,))
    hess = np.zeros(grad.shape + (dim,))  # natural coordinates until the chain rule
    jac = np.eye(dim)  # d natural / d unconstrained
    curv = np.zeros_like(hess)  # sum_i natural score_i * hess natural_i
    q, p = spec.ar_order, spec.ma_order
    re, im, power, tmp = work[0], work[1], work[2], work[3]
    for start, size, coef, pacf_sign in ((0, q, -nat.phi, 1.0), (q, p, nat.theta, -1.0)):
        if not size:
            continue
        block, block_rows = vector[start : start + size], rows[start : start + size]
        _circle_parts(coef, cos, sin, re, im, tmp)
        np.multiply(re, re, out=power)
        power += np.multiply(im, im, out=tmp)
        for j, row in enumerate(block_rows):
            np.multiply(cos[j], re, out=row)
            row += np.multiply(sin[j], im, out=tmp)
        block_rows *= 2.0
        block_rows /= power
        np.divide(weights, power, out=power)
        re *= power
        im *= power
        by_coef = 2.0 * (dot(cos[:size], re) + dot(sin[:size], im))
        # phi = pacf_to_ar(tanh x); theta = -pacf_to_ar(-tanh x), whose signs cancel
        pacf_jac, pacf_curv = _pacf_to_ar_derivatives(pacf_sign * np.tanh(block))
        sech2 = _sech2(block)
        grad[..., start : start + size] = (by_coef.T @ pacf_jac) * sech2
        # sum_k w_k cos((j - l) omega_k) / P_k, a Toeplitz matrix in j - l
        lags = np.stack([total(power)] + [dot(cos[m], power) for m in range(size - 1)], axis=-1)
        toeplitz = lags[..., abs(np.arange(size)[:, None] - np.arange(size))]
        own = _gram(block_rows, weights, dot, tmp) - 2.0 * toeplitz
        hess[..., start : start + size, start : start + size] = pacf_sign * own
        jac[start : start + size, start : start + size] = pacf_jac * sech2
        nat_curv = pacf_sign * np.einsum("...i,ilm->...lm", by_coef.T, pacf_curv) * np.outer(sech2, sech2)
        curv[..., start : start + size, start : start + size] = nat_curv
    pos = q + p
    if spec.fractional != "none":
        if spec.fractional == "artfima":
            lam, damp = nat.lambda_, math.exp(-nat.lambda_)
            temper = _temper(lam, half_sin2, work[0])
            per_temper = np.divide(weights, temper, out=work[1])
            by_temper = total(per_temper)
            slope = -2.0 * math.expm1(-lam) * damp * by_temper
            slope -= 4.0 * damp * dot(per_temper, half_sin2)  # sum_k w_k T'_k / T_k
            grad[..., pos + 1] = -nat.d * lam * slope
            slope_row = np.multiply(half_sin2, -4.0 * damp * lam, out=rows[pos + 1])
            slope_row -= 2.0 * math.expm1(-lam) * damp * lam
            slope_row /= temper  # M = d L / d log lambda, whose weighted sum is lambda * slope
            by_square = dot(np.square(slope_row, out=work[2]), weights)
            lam_lam = (1.0 - lam) * lam * slope - by_square + 2.0 * (lam * damp) ** 2 * by_temper
            hess[..., pos, pos + 1] = hess[..., pos + 1, pos] = -lam * slope
            hess[..., pos + 1, pos + 1] = -nat.d * lam_lam
            slope_row *= -nat.d
        grad[..., pos] = -dot(weights, log_temper)
        np.negative(log_temper, out=rows[pos])
        if spec.fractional == "arfima":
            jac[pos, pos] = 0.5 * _sech2(vector[pos])
            grad[..., pos] *= jac[pos, pos]
        pos += 1 if spec.fractional == "arfima" else 2
    grad[..., pos] = scale_score
    rows[pos].fill(1.0)
    # the PACF coordinates and ARFIMA's d_tilde, all tanh, lead the vector
    tanh_end = q + p + (spec.fractional == "arfima")
    tanh_diag = np.arange(tanh_end)
    curv[..., tanh_diag, tanh_diag] -= 2.0 * np.tanh(vector[:tanh_end]) * grad[..., :tanh_end]
    # the outer products: -(w + 1) s^2 + w s (1 - s) on the base block, with s = 1 unwrapped
    pair_weight, share = work[0], work[1]
    if spec.sv_wrapper:
        np.subtract(1.0, noise, out=share)
        np.subtract(dens, weights, out=pair_weight)
        pair_weight -= share
        pair_weight *= share
    else:
        np.subtract(-1.0, weights, out=pair_weight)
    hess[..., :base, :base] += _gram(rows[:base], pair_weight, dot, work[3])
    if spec.sv_wrapper:
        grad[..., base] = noise_score
        # -(w + 1) (1 - s) s - w s (1 - s) across, and w s (1 - s) - (w + 1) (1 - s)^2 on log sigma2_eps
        np.multiply(np.add(weights, dens, out=pair_weight), 2.0, out=pair_weight)
        pair_weight += 1.0
        pair_weight *= share
        pair_weight *= noise
        hess[..., :base, base] = hess[..., base, :base] = -dot(rows[:base], pair_weight).T
        np.subtract(weights, dens, out=pair_weight)
        pair_weight -= noise
        pair_weight *= noise
        hess[..., base, base] = total(pair_weight)
    return value, grad, jac.T @ hess @ jac + curv


def spectral_density(spec: ModelSpec, nat: NaturalParams, omega) -> np.ndarray | float:
    """The model spectral density at frequencies in (0, pi): the kernel's f, or exp of its log f."""
    omega_arr = np.atleast_1d(np.asarray(omega, dtype=float))
    if np.any(omega_arr <= 0.0) or np.any(omega_arr >= np.pi):
        raise ValueError("frequencies must lie strictly inside (0, pi)")
    log_dens, _, dens = density_from_trig(spec, nat, trig_table(spec, omega_arr))
    dens = np.exp(log_dens, out=log_dens) if dens is None else dens
    return dens if np.ndim(omega) else float(dens[0])


# Gaussian priors, (mean, standard deviation), on the scale the sampler sees;
# AR and MA coordinates get the flat-on-pacf prior instead.
_PRIOR_MEMORY = (0.0, 1.0)  # d_tilde (ARFIMA) or d (ARTFIMA)
_PRIOR_LOG_LAMBDA = (0.0, 1.0)
_PRIOR_LOG_SIGMA2 = (0.0, 1.0)
_PRIOR_LOG_SIGMA2_EPS = (0.0, 0.1)
_PRIOR_FRACTIONAL = {"none": (), "arfima": (_PRIOR_MEMORY,), "artfima": (_PRIOR_MEMORY, _PRIOR_LOG_LAMBDA)}


def _gaussian_priors(spec: ModelSpec) -> tuple:
    """(mean, sd) of every coordinate after the AR and MA blocks, in order."""
    priors = _PRIOR_FRACTIONAL[spec.fractional] + (_PRIOR_LOG_SIGMA2,)
    return priors + (_PRIOR_LOG_SIGMA2_EPS,) * spec.sv_wrapper


def log_prior(spec: ModelSpec, vector) -> float:
    """Log prior density of an unconstrained vector.

    Uniform(-1, 1) on each partial autocorrelation, expressed in the
    unconstrained space through the tanh Jacobian; independent Gaussians on
    the remaining coordinates, as set in the ``_PRIOR_*`` constants.  The
    arithmetic is on Python floats, the PACF terms summed in ``np.sum``'s order
    (:func:`_float_sum`), except exp and log1p: ``math.exp`` rounds unlike numpy's.
    """
    vector = np.asarray(vector, dtype=float)
    if vector.shape != (spec.n_params,):
        raise ValueError(f"expected {spec.n_params} parameters, got shape {vector.shape}")
    block = spec.ar_order + spec.ma_order
    # log(0.5 * (1 - tanh(v)^2)) = -log 2 - 2 log cosh v per coordinate, with
    # log cosh v = |v| + log1p(exp(-2|v|)) - log 2, finite for every finite v
    size = np.abs(vector[:block])
    soft = np.log1p(np.exp(-2.0 * size)).tolist()
    total = _float_sum([-2.0 * (s + c - math.log(2.0)) - math.log(2.0) for s, c in zip(size.tolist(), soft)])
    for x, (mean, sd) in zip(vector[block:].tolist(), _gaussian_priors(spec)):
        z = (x - mean) / sd
        total += -0.5 * (z * z + LOG_TWO_PI) - math.log(sd)
    return total


def log_prior_derivatives(spec: ModelSpec, vector) -> tuple[float, np.ndarray, np.ndarray]:
    """:func:`log_prior` with its exact gradient and Hessian diagonal, which is all of its Hessian.

    A PACF coordinate v contributes -2 tanh v and -2 sech^2 v; a Gaussian
    coordinate -(v - mean)/sd^2 and -1/sd^2.
    """
    vector = np.asarray(vector, dtype=float)
    block = spec.ar_order + spec.ma_order
    mean, sd = np.array(_gaussian_priors(spec), dtype=float).reshape(-1, 2).T
    grad = np.concatenate([-2.0 * np.tanh(vector[:block]), -(vector[block:] - mean) / sd**2])
    return log_prior(spec, vector), grad, np.concatenate([-2.0 * _sech2(vector[:block]), -1.0 / sd**2])
