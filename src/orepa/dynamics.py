"""Reverse-mode gradients through the block algebra, SGD, and numeric
probes of multi-branch optimization dynamics.

Two gradient routes exist for the same loss L = <g, y>:

  * squeezed:  y = conv(x, W_e) with W_e from squeeze_block; gradients
    chain through the kernel-space merges.
  * expanded:  y = expanded_forward(block, x); gradients chain through
    the per-layer feature maps.

Both routes differentiate the same function, so their gradients agree to
floating-point noise. That identity is the artifact's headline invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from types import SimpleNamespace

import numpy as np

from .layers import _dense_grad_to_native
from .squeeze import (_expanded_input, _merge_backward, _output_hw, _squeeze,
                      block_forward_squeezed, squeeze_branch)
from .tensor import (ConvGeometry, KernelTensor, ShapeError, Tensor, _addressable, _batched,
                     _centered, _conv_grad_w, _conv_grad_x, _embedded, conv2d_direct)


# --------------------------------------------------------------------------
# Parameter flattening
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamEntry:
    branch: int
    layer: int          # -1 means the branch scaling vector
    kind: str
    shape: tuple
    offset: int
    size: int


class ParamSet:
    """Bijection between a block's trainable scalars and one flat vector.

    Order: branches in block order; within a branch, layers in order,
    then the branch scaling. A trainable layer's parameter is its native
    (grouped) kernel; a scaling layer's (C, 1, 1, 1) kernel is its diagonal.
    The f64 vector given to set_flat is the parameters' storage: it is
    frozen, and an f64 block's kernels and scalings are views of it.
    """

    def __init__(self, block):
        self.block = block
        self.entries = []
        offset = 0
        for bi, branch in enumerate(block.branches):
            for li, (spec, kern) in enumerate(zip(branch.layers, branch.weights)):
                if not spec.trainable:
                    continue
                size = kern.data.size
                self.entries.append(ParamEntry(bi, li, spec.kind, kern.shape, offset, size))
                offset += size
            if branch.scaling is not None and branch.scaling_trainable:
                size = branch.out_ch
                self.entries.append(ParamEntry(bi, -1, "gamma", (size,), offset, size))
                offset += size
        self.size = offset
        self._flat = None  # set_flat's vector, while the block holds views of it

    def _held(self, e):
        branch = self.block.branches[e.branch]
        return branch.scaling if e.layer < 0 else branch.weights[e.layer].data

    def _gather(self, value_of):
        """value_of(entry) at each entry's offset of one f64 vector."""
        out = np.zeros(self.size)
        for e in self.entries:
            out[e.offset:e.offset + e.size] = np.asarray(value_of(e), dtype=np.float64).ravel()
        return out

    def get_flat(self):
        """The frozen f64 vector set_flat kept, while every kernel and scaling is
        still a view of it; else a new gather, as in an f32 block."""
        if self._flat is not None and all(
                np.may_share_memory(self._held(e), self._flat) for e in self.entries):
            return self._flat
        return self._gather(self._held)

    def set_flat(self, flat):
        """Keep flat as an f64 array made read-only (see _Array); each kernel and
        scaling is a view of it, or, in an f32 block, a rounded copy."""
        if np.shape(flat) != (self.size,):
            raise ShapeError("flat params", (self.size,), np.shape(flat))
        flat = np.ascontiguousarray(flat, dtype=np.float64)
        flat.setflags(write=False)
        for e in self.entries:
            branch, old = self.block.branches[e.branch], self._held(e)
            chunk = flat[e.offset:e.offset + e.size].reshape(e.shape).astype(old.dtype, copy=False)
            if e.layer < 0:
                branch.scaling = chunk
                continue
            branch.weights[e.layer] = KernelTensor(chunk, groups=branch.weights[e.layer].groups)
        self._flat = flat if self.block.dtype == "f64" else None

    def flatten_grads(self, grad_map):
        """grad_map: {(branch, layer): array}, layer -1 for gamma; KeyError if one is missing."""
        return self._gather(lambda e: grad_map[(e.branch, e.layer)])


# --------------------------------------------------------------------------
# The two gradient routes
# --------------------------------------------------------------------------

def _route_inputs(block, x, upstream):
    """x and upstream as rank-4 arrays; ShapeError unless x has the block's
    input channels and upstream the extents of the block's output on x."""
    xb, up = _batched(x)[0], _batched(upstream)[0]
    if xb.shape[1] != block.in_ch:
        raise ShapeError("channels", block.in_ch, xb.shape[1])
    want = (len(xb), block.out_ch) + _output_hw(block, xb.shape[2:])
    if up.shape != want:
        raise ShapeError("upstream", want, up.shape)
    return xb, up


def backward_through_squeeze(block, x, upstream):
    """Gradients of L = <upstream, conv(x, W_e)> for every trainable scalar,
    chained through the kernel-space merges of the fold squeeze_block
    runs. The squeezed conv's weight adjoint runs first, before any fold is
    made, as it reads only W_e's extents; then the branches are folded and
    walked last to first. Returns a flat vector in ParamSet order."""
    x, upstream = _route_inputs(block, x, upstream)
    # W_e is dense, (out_ch, in_ch) + effective_k; its stand-in holds no data
    w_e = SimpleNamespace(out_channels=block.out_ch, in_channels_per_group=block.in_ch,
                          groups=1, kh=block.effective_k[0], kw=block.effective_k[1])
    g_e = _conv_grad_w(x, upstream, w_e, block.eval_geometry())
    folds = []
    _squeeze(block, folds)  # W_e itself is not read

    grad_map = {}
    for bi in range(len(block.branches) - 1, -1, -1):
        # the list lets go of each fold as its walk starts, so a walked
        # branch's prefix products die as the next walk begins
        prefix, branch = folds.pop(), block.branches[bi]
        g_k = g_e[_centered(g_e.shape, prefix[-1].shape)]
        if branch.scaling is not None:
            if branch.scaling_trainable:
                grad_map[(bi, -1)] = np.einsum("opij,opij->o", prefix[-1].data, g_k)
            g_k = g_k * np.asarray(branch.scaling, dtype=np.float64)[:, None, None, None]
        for li in range(len(prefix) - 1, 0, -1):
            prefix.pop()  # each product dies once the walk is below it
            g_k, dw = _merge_backward(prefix[-1], branch.weights[li], g_k)
            if branch.layers[li].trainable:  # a fixed layer's adjoint runs; its result dies here
                grad_map[(bi, li)] = dw
            del dw
        # only a single-layer grouped branch's g_k is still a dense crop of g_e
        if branch.layers[0].trainable:
            grad_map[(bi, 0)] = _dense_grad_to_native(g_k, branch.weights[0])
    del g_e, g_k  # freed before flatten_grads allocates; a gradient cropped from g_e keeps it
    return ParamSet(block).flatten_grads(grad_map)


def backward_through_expanded(block, x, upstream):
    """Same gradients, chained through the expanded per-layer evaluation
    under expanded_forward's outer padding, with f64 map gradients. A branch
    scaling acts in kernel space: with dw the last layer's unscaled weight
    adjoint, grad gamma_o = <w_o, dw_o> (as <g_o, conv(a, w)_o> = <w_o, dw_o>),
    grad w = gamma * dw, and the input adjoint runs with w scaled by gamma."""
    _, up = _route_inputs(block, x, upstream)
    xp = _batched(_expanded_input(block, x))[0]
    s_h, s_w = block.output_geometry.stride
    g_sum = up.astype(np.float64, copy=False)
    if (s_h, s_w) != (1, 1):
        g_sum = np.zeros((xp.shape[0], block.out_ch) + x.shape[-2:])
        g_sum[:, :, ::s_h, ::s_w] = up

    grad_map = {}
    valid = ConvGeometry()
    for bi, branch in enumerate(block.branches):
        acts = [xp]
        for w in branch.weights:
            acts.append(conv2d_direct(Tensor(acts[-1]), w, valid).data)
        out_shape = acts.pop().shape  # only its extents are read
        g_a = g_sum if out_shape == g_sum.shape else _embedded(g_sum, out_shape[2:])
        for li in range(len(branch.weights) - 1, -1, -1):
            w = branch.weights[li]
            # each map dies at its weight adjoint, before the input adjoint runs
            dw = _conv_grad_w(acts.pop(), g_a, w, valid)
            if branch.scaling is not None and li == len(branch.weights) - 1:
                gamma = np.asarray(branch.scaling, dtype=np.float64)[:, None, None, None]
                if branch.scaling_trainable:
                    grad_map[(bi, -1)] = np.einsum("opij,opij->o", w.data, dw)
                dw *= gamma
                w = KernelTensor(w.data * gamma, groups=w.groups) if li > 0 else w
            if branch.layers[li].trainable:  # a fixed layer's adjoint runs; its result dies here
                grad_map[(bi, li)] = dw
            del dw
            if li > 0:
                g_a = _conv_grad_x(g_a, w)
        del g_a  # the branch's last map gradient, before the next branch's maps
    del xp, g_sum  # freed before flatten_grads allocates
    return ParamSet(block).flatten_grads(grad_map)


def finite_difference_grads(block, x, upstream, eps=1e-6):
    """Central finite differences of L = <upstream, conv(x, W_e)>, via the
    squeezed route, over every trainable scalar."""
    ps = ParamSet(block)
    base = ps.get_flat()

    def loss_at(i, step):
        probe = base.copy()  # set_flat freezes its vector: a new probe each time
        probe[i] += step
        ps.set_flat(probe)
        return float(np.sum(_batched(upstream)[0] * _batched(block_forward_squeezed(block, x))[0]))

    out = np.array([(loss_at(i, eps) - loss_at(i, -eps)) / (2 * eps) for i in range(base.size)])
    ps.set_flat(base)
    return out


# gradcheck's default (fd_tol, route_tol) per block dtype; f32 routes round apart
# by about 1e-4 of max(1, |g|) (1.1e-4 on a 3 -> 128 channel deepstem, |g| near 2.5e3)
GRADCHECK_TOL = {"f64": (1e-6, 1e-9), "f32": (1e-4, 1e-3)}


def _relative_gap(a, b):
    """max |a - b| / max(1, |a|, |b|): 0 when empty, NaN when either holds a
    NaN or an infinity."""
    with np.errstate(invalid="ignore"):
        return float(np.max(np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b))),
                            initial=0.0))


def gradcheck_block(block, x, upstream, eps=1e-6, fd_tol=None, route_tol=None):
    """Compare the two analytic routes with each other and with central
    finite differences, which run on an f64 copy of the block and inputs so
    that eps stays above the storage resolution. Both gaps are relative,
    scaled by max(1, |a|, |b|). Unset tolerances come from GRADCHECK_TOL."""
    default_fd, default_route = GRADCHECK_TOL[block.dtype]
    fd_tol = default_fd if fd_tol is None else fd_tol
    route_tol = default_route if route_tol is None else route_tol
    g_sq = backward_through_squeeze(block, x, upstream)
    g_ex = backward_through_expanded(block, x, upstream)
    block64 = replace(block, branches=[replace(b, weights=[w.astype("f64") for w in b.weights])
                                       for b in block.branches])
    g_fd = finite_difference_grads(block64, x.astype("f64"), upstream.astype("f64"), eps=eps)
    route_diff = _relative_gap(g_sq, g_ex)
    fd_err = _relative_gap(g_sq, g_fd)
    return {
        "n_params": int(g_sq.size),
        "route_diff": route_diff,
        "fd_rel_err": fd_err,
        "ok": route_diff <= route_tol and fd_err <= fd_tol,
    }


# --------------------------------------------------------------------------
# SGD with the literal decayed-gradient momentum
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimizerConfig:
    eta: float
    weight_decay: float = 0.0
    momentum: float = 0.0
    momentum_mode: str = "scaled"   # "scaled": factor eta*mu; "standard": factor mu

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError("eta must be > 0")
        if not self.weight_decay >= 0:
            raise ValueError("weight_decay must be >= 0")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if self.momentum_mode not in ("scaled", "standard"):
            raise ValueError("momentum_mode must be 'scaled' or 'standard'")


class SgdState:
    """Velocity buffer: the geometric sum of past gradients."""

    def __init__(self):
        self.velocity = None


def sgd_step(params, grads, cfg, state=None):
    """One update: (1 - eta*lambda) * W - eta * sum_tau factor^(t-tau) * g_tau.

    The decay factor is eta*mu in "scaled" mode and mu in "standard" mode.
    With mu = 0 the step is memoryless.
    """
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if cfg.momentum == 0.0 or state is None:
        velocity = grads  # kept nowhere: at mu = 0 the state holds no gradient
    else:
        factor = cfg.eta * cfg.momentum if cfg.momentum_mode == "scaled" else cfg.momentum
        prev = state.velocity if state.velocity is not None else np.zeros_like(grads)
        velocity = factor * prev + grads
        state.velocity = velocity
    # one new buffer: -(eta * v) + p is bit-equal to p - eta * v
    out = velocity * -cfg.eta
    decay = 1.0 - cfg.eta * cfg.weight_decay
    out += params if decay == 1.0 else decay * params
    return out


# --------------------------------------------------------------------------
# First-order update probes
# --------------------------------------------------------------------------

@dataclass
class DynamicsReport:
    probe: str
    eta: float
    residual_norm: float
    residual_ratio: float = None
    first_order_diff: float = None
    details: dict = field(default_factory=dict)


def _first_order(delta_fn, eta):
    """Richardson extrapolation: 4 d(eta/2) - d(eta) cancels the quadratic
    term, leaving the linear part of a one-step update exactly when the
    update is polynomial in the step size."""
    return 4.0 * delta_fn(eta / 2) - delta_fn(eta)


def _chain_product(chain):
    acc = chain[0]
    for w in chain[1:]:
        acc = w @ acc
    return acc


def _chain_step(chain, x, g, eta, rates=None):
    """One SGD step on L = g * (W_e x) for the chain product W_e, a row
    with chain[0] applied first; returns the change of W_e. Factor i steps
    with eta * rates[i], so a rate of 0 freezes it."""
    n = len(chain)
    stepped = []
    for i, w in enumerate(chain):
        suffix = np.eye(w.shape[0]) if i == n - 1 else _chain_product(chain[i + 1:])
        prefix_x = x if i == 0 else _chain_product(chain[:i]) @ x
        rate = 1.0 if rates is None else rates[i]
        stepped.append(w - eta * rate * g * np.outer(suffix[0], prefix_x))
    return _chain_product(stepped)[0] - _chain_product(chain)[0]


def _pair(gamma, w):
    """The conv-scale pair y = gamma * (w . x) as a chain."""
    return [w[None, :], np.atleast_2d(gamma)]


def _pair_law(gamma, w, x, g, eta, gamma_rate=1.0):
    """First-order change of gamma * w under one SGD step of its pair;
    gamma_rate 0 freezes gamma."""
    return -eta * (gamma ** 2 * g * x + gamma_rate * float(w @ x) * g * w)


def _vec(v):
    return np.atleast_1d(np.asarray(v, dtype=np.float64))


def _report(probe, eta, delta, law, reference=None, **details):
    """A probe's report on its update delta(e). residual_norm is
    max |delta(eta) - law| for a law linear in eta, and residual_ratio its
    ratio to the same at eta / 2 (about 4 when the remainder is quadratic).
    Given a reference update, first_order_diff is the largest gap between
    the first-order parts of the two, and details hold reference(eta) too."""
    observed = delta(eta)
    norm = float(np.max(np.abs(observed - law)))
    half = float(np.max(np.abs(delta(eta / 2) - law / 2)))
    first_order_diff = None
    if reference is not None:
        first_order_diff = float(np.max(np.abs(
            _first_order(delta, eta) - _first_order(reference, eta))))
        details["reference"] = reference(eta)
    return DynamicsReport(probe, eta, norm, norm / half if half > 0 else None,
                          first_order_diff, {**details, "observed": observed})


def probe_conv_scale_update(weight, gamma, x, g, eta):
    """One SGD step on the pair (gamma, W) with y = gamma * (W . x).

    Observed is the exact product update of the end-to-end weight;
    predicted is its first-order part; the residual is their gap, which
    shrinks like eta^2.
    """
    w, xv = _vec(weight), _vec(x)
    gamma = float(gamma)
    g = float(g)
    delta = partial(_chain_step, _pair(gamma, w), xv, g)
    predicted = _pair_law(gamma, w, xv, g, eta)
    return _report("convscale", eta, delta, predicted, predicted=predicted,
                   end_to_end_before=gamma * w, end_to_end_after=gamma * w + delta(eta))


def probe_shared_gamma(weight, gamma, x, g, n_branches, eta, rng=None,
                       split_normalized=True, parts=None, pin_gamma=False):
    """M-way additive split of W under one shared scaling.

    Because every summand receives the same gradient, an M-way split
    steps the summed weight M times as far per unit learning rate as the
    fused pair does. With split_normalized=True each summand steps with
    eta / M, so both systems take the same effective step and the
    structural comparison is isolated from that trivial rescaling; the
    raw unnormalized first-order gap is also reported.

    The split is the chain [parts stacked, a frozen row of ones, gamma];
    the reference is the fused pair (gamma, sum of parts). parts overrides
    the random split; pin_gamma freezes the scaling in both systems.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    w, xv = _vec(weight), _vec(x)
    gamma = float(gamma)
    g = float(g)
    m = int(n_branches)
    if parts is None:
        parts = [rng.standard_normal(w.shape) for _ in range(m - 1)]
        parts.append(w - sum(parts) if m > 1 else w.copy())
    else:
        parts = [_vec(p) for p in parts]
        if len(parts) != m:
            raise ShapeError("parts", m, len(parts))
    s = np.sum(parts, axis=0)
    gamma_rate = 0.0 if pin_gamma else 1.0
    split = [np.stack(parts), np.ones((1, m)), np.atleast_2d(gamma)]
    delta_ref = partial(_chain_step, _pair(gamma, s), xv, g, rates=(1.0, gamma_rate))

    def delta_branch(e, lr_scale):
        return _chain_step(split, xv, g, e, (lr_scale, 0.0, gamma_rate))

    lr_scale = 1.0 / m if split_normalized else 1.0
    fo_raw_gap = _first_order(lambda e: delta_branch(e, 1.0), eta) - _first_order(delta_ref, eta)
    law = _pair_law(gamma, s, xv, g, eta, gamma_rate)
    return _report("shared", eta, lambda e: delta_branch(e, lr_scale), law, delta_ref,
                   n_branches=m, split_normalized=split_normalized,
                   unnormalized_first_order_diff=float(np.max(np.abs(fo_raw_gap))))


def probe_branchwise_gamma(branches, x, g, eta):
    """M branches with per-branch scalings against the conv-scale pair that
    matches the end-to-end weight and the total scaling energy.

    The branch system is the sum of its pairs. The reference pair is
    (gamma_r, W_r) with gamma_r = sqrt(sum gamma_j^2) and
    W_r = sum(gamma_j W_j) / gamma_r, the unique pair that reproduces
    the branch system's first-order update whenever the active branches
    collapse (at most one active, or identical states). When at least two
    active branches differ, no pair reproduces it and the first-order gap
    is the structural signature of branch-wise scaling.
    """
    xv = _vec(x)
    g = float(g)
    gammas = [float(gm) for gm, _ in branches]
    ws = [_vec(w) for _, w in branches]
    pairs = [_pair(gm, w) for gm, w in zip(gammas, ws)]

    def delta_branch(e):
        return np.sum([_chain_step(p, xv, g, e) for p in pairs], axis=0)

    e2e = np.sum([gm * w for gm, w in zip(gammas, ws)], axis=0)
    energy = float(np.sum(np.square(gammas)))
    if energy > 0:
        gamma_r = float(np.sqrt(energy))
        w_r = e2e / gamma_r
    else:
        gamma_r = 1.0
        w_r = np.sum(ws, axis=0)
    delta_ref = partial(_chain_step, _pair(gamma_r, w_r), xv, g)

    active = [bool(np.any(w != 0) or gm != 0) for gm, w in zip(gammas, ws)]
    act_idx = [i for i, a in enumerate(active) if a]
    per_branch_fo = [_pair_law(gm, w, xv, g, eta) for gm, w in zip(gammas, ws)]
    pair_gaps = [float(np.max(np.abs(per_branch_fo[i] - per_branch_fo[j])))
                 for ai, i in enumerate(act_idx) for j in act_idx[ai + 1:]]
    distinct = all(np.any(ws[i] != ws[j])
                   for ai, i in enumerate(act_idx) for j in act_idx[ai + 1:])
    conditions_hold = len(act_idx) >= 2 and distinct

    return _report("branchwise", eta, delta_branch, np.sum(per_branch_fo, axis=0), delta_ref,
                   n_branches=len(ws), active=active, conditions_hold=bool(conditions_hold),
                   min_branch_gradient_gap=min(pair_gaps) if pair_gaps else None)


def project_onto(w, g_vec):
    """Projection of g_vec onto the direction of w; zero when w is zero."""
    w = np.asarray(w, dtype=np.float64)
    g_vec = np.asarray(g_vec, dtype=np.float64)
    n2 = float(w @ w)
    if n2 == 0.0:
        return np.zeros_like(g_vec)
    return (float(g_vec @ w) / n2) * w


def balanced_chain(n_layers, input_dim, hidden_dim, scale, rng):
    """A product-of-matrices chain with matched layer energies: adjacent
    Gram matrices agree, each factor carries scale**(1/N)."""
    s = scale ** (1.0 / n_layers)
    v = rng.standard_normal(input_dim)
    v /= np.linalg.norm(v)
    if n_layers == 1:
        return [s * v[None, :]]
    us = []
    for _ in range(n_layers - 1):
        u = rng.standard_normal(hidden_dim)
        us.append(u / np.linalg.norm(u))
    chain = [s * np.outer(us[0], v)]
    for i in range(1, n_layers - 1):
        chain.append(s * np.outer(us[i], us[i - 1]))
    chain.append(s * us[-1][None, :])
    return chain


def probe_multilayer_lemma(n_layers, eta, input_dim=5, hidden_dim=3, scale=1.0,
                           rng=None, chain=None, x=None, g=1.0):
    """One SGD step on a single-branch stack of 1x1 layers in vector form,
    compared against the depth-aware first-order law
    -eta * |W_e|^(2 - 2/N) * (G + (N - 1) * proj_{W_e}(G)).

    The law holds when adjacent layer Gram matrices match (balanced
    start); the probe reports without asserting otherwise.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if chain is None:
        chain = balanced_chain(n_layers, input_dim, hidden_dim, scale, rng)
    chain = [np.atleast_2d(np.asarray(w, dtype=np.float64)) for w in chain]
    n = len(chain)
    dim = chain[0].shape[1]
    if x is None:
        x = rng.standard_normal(dim)
    xv = np.asarray(x, dtype=np.float64)
    g = float(g)

    balanced = all(
        np.allclose(chain[i + 1].T @ chain[i + 1], chain[i] @ chain[i].T,
                    rtol=0, atol=1e-10)
        for i in range(n - 1))

    delta = partial(_chain_step, chain, xv, g)
    w_e = _chain_product(chain)[0]
    g_vec = g * xv
    norm_we = float(np.linalg.norm(w_e))
    predicted = -eta * (norm_we ** (2.0 - 2.0 / n)) * (
        g_vec + (n - 1) * project_onto(w_e, g_vec))
    return _report("lemma", eta, delta, predicted, n_layers=n, balanced=bool(balanced),
                   predicted=predicted, end_to_end_before=w_e)


# --------------------------------------------------------------------------
# Toy training and branch diagnostics
# --------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")  # a divergence is reported, not warned
def train_toy(block, target_kernel, steps, cfg, mode="online", seed=0,
              batch=2, hw=(8, 8), record_params=False):
    """Fit the squeezed kernel to a target by gradient descent on
    0.5 * mean((conv(x, W_e) - conv(x, target))^2) over one seeded batch.

    mode "online" differentiates through the squeeze; "offline" through
    the expanded evaluation. Same seed means the same batch and the same
    trajectory up to floating-point noise between the two routes.
    diverged_at is the first step whose loss is not finite, `steps` for the
    loss after the last update, or None.
    """
    if mode not in ("online", "offline"):
        raise ValueError("mode must be 'online' or 'offline'")
    keh, kew = block.effective_k
    if (target_kernel.kh, target_kernel.kw) != (keh, kew) or \
            target_kernel.out_channels != block.out_ch or \
            target_kernel.in_channels != block.in_ch:
        raise ShapeError("target kernel", (block.out_ch, block.in_ch, keh, kew),
                         target_kernel.shape)
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal(_addressable((batch, block.in_ch) + tuple(hw))),
               dtype=block.dtype)
    y_t = conv2d_direct(x, target_kernel.astype(block.dtype), block.eval_geometry()).data

    ps = ParamSet(block)
    state = SgdState()
    backward = backward_through_squeeze if mode == "online" else backward_through_expanded
    losses, history = [], []
    for step in range(steps + 1):  # the loss after the last update is the final loss
        r = block_forward_squeezed(block, x).data - y_t
        loss = float(0.5 * np.mean(r * r))
        if not np.isfinite(loss) or step == steps:
            break
        losses.append(loss)
        upstream = Tensor(r / r.size)
        del r  # not read again in this step
        grads = backward(block, x, upstream)
        ps.set_flat(sgd_step(ps.get_flat(), grads, cfg, state))
        if record_params:
            history.append(ps.get_flat())
    return {"losses": losses, "final_loss": loss,
            "diverged_at": None if np.isfinite(loss) else step, "params": history}


def _aligned_branch_kernels(block):
    """Each branch squeezed on its own, zero-embedded at the common extents."""
    kernels = [squeeze_branch(b).data for b in block.branches]
    hw = tuple(max(k.shape[axis] for k in kernels) for axis in (2, 3))
    return [_embedded(k, hw, np.float64) for k in kernels]


def branch_similarity(block):
    """Cosine similarity matrix between individually squeezed branches,
    center-aligned to common extents. Zero-norm branches score 0 against
    every other branch; the diagonal is 1 by convention."""
    flats = [k.ravel() for k in _aligned_branch_kernels(block)]
    m = len(flats)
    norms = [float(np.linalg.norm(f)) for f in flats]
    sim = np.eye(m)
    for i in range(m):
        for j in range(i + 1, m):
            if norms[i] == 0 or norms[j] == 0:
                val = 0.0
            else:
                val = float(flats[i] @ flats[j] / (norms[i] * norms[j]))
            sim[i, j] = sim[j, i] = val
    return sim


def channel_norm_profile(block):
    """Per-branch, per-output-channel kernel norms, normalized so each
    channel's norms sum to 1 across branches (all-zero channels stay 0)."""
    prof = np.stack([np.linalg.norm(k.reshape(k.shape[0], -1), axis=1)
                     for k in _aligned_branch_kernels(block)])
    totals = prof.sum(axis=0)
    safe = np.where(totals > 0, totals, 1.0)
    return prof / safe[None, :]

