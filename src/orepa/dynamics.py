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

from dataclasses import dataclass, field

import numpy as np

from .layers import as_dense
from .squeeze import (apply_branch_scaling, block_forward_squeezed,
                      check_center_alignable, merge_parallel, merge_sequential,
                      squeeze_block, squeeze_branch)
from .tensor import (ConvGeometry, KernelTensor, ShapeError, Tensor, _centered,
                     _correlate, _correlate_grad_w, _pad_hw, conv2d_direct)


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
    then the branch scaling. Scaling layers expose their diagonal as the
    parameter; every other kind exposes its full (grouped) kernel.
    """

    def __init__(self, block):
        self.block = block
        self.entries = []
        offset = 0
        for bi, branch in enumerate(block.branches):
            for li, (spec, kern) in enumerate(zip(branch.layers, branch.weights)):
                if not spec.trainable:
                    continue
                shape = ((kern.out_channels,) if spec.kind == "scaling"
                         else kern.shape)
                size = int(np.prod(shape))
                self.entries.append(ParamEntry(bi, li, spec.kind, shape, offset, size))
                offset += size
            if branch.scaling is not None and branch.scaling_trainable:
                size = branch.out_ch
                self.entries.append(ParamEntry(bi, -1, "gamma", (size,), offset, size))
                offset += size
        self.size = offset

    def get_flat(self):
        out = np.zeros(self.size)
        for e in self.entries:
            branch = self.block.branches[e.branch]
            if e.layer < 0:
                vals = branch.scaling
            elif e.kind == "scaling":
                vals = branch.weights[e.layer].data[:, 0, 0, 0]
            else:
                vals = branch.weights[e.layer].data
            out[e.offset:e.offset + e.size] = np.asarray(vals, dtype=np.float64).ravel()
        return out

    def set_flat(self, flat):
        if flat.shape != (self.size,):
            raise ShapeError("flat params", (self.size,), flat.shape)
        for e in self.entries:
            branch = self.block.branches[e.branch]
            chunk = flat[e.offset:e.offset + e.size].reshape(e.shape)
            if e.layer < 0:
                branch.scaling = chunk.astype(branch.scaling.dtype)
                continue
            old = branch.weights[e.layer]
            if e.kind == "scaling":
                data = np.zeros(old.shape, dtype=old.data.dtype)
                data[:, 0, 0, 0] = chunk
            else:
                data = chunk.astype(old.data.dtype)
            branch.weights[e.layer] = KernelTensor(data, groups=old.groups)

    def flatten_grads(self, grad_map):
        """grad_map: {(branch, layer): array} with layer -1 for gamma."""
        out = np.zeros(self.size)
        for e in self.entries:
            g = grad_map.get((e.branch, e.layer))
            if g is not None:
                out[e.offset:e.offset + e.size] = np.asarray(g, dtype=np.float64).ravel()
        return out


# --------------------------------------------------------------------------
# Convolution and merge adjoints
# --------------------------------------------------------------------------

def _batched_arr(x):
    arr = x.data if isinstance(x, Tensor) else np.asarray(x)
    return arr[None] if arr.ndim == 3 else arr


def _conv_grad_w(x, gout, kernel, geom):
    """d<gout, conv(x, kernel, geom)> / d kernel, native grouped shape."""
    return _correlate_grad_w(_pad_hw(_batched_arr(x), geom.padding), _batched_arr(gout),
                             kernel.kh, kernel.kw, kernel.groups, geom.stride)


def _conv_grad_x(gout, kernel):
    """Input gradient of a VALID stride-1 convolution: the full correlation
    of gout with the flipped kernel, in- and out-channels swapped per group."""
    g, kh, kw = kernel.groups, kernel.kh, kernel.kw
    gp = _pad_hw(_batched_arr(gout), (kh - 1, kh - 1, kw - 1, kw - 1))
    flipped = kernel.data[..., ::-1, ::-1].reshape(g, -1, kernel.in_channels_per_group, kh, kw)
    flipped = flipped.transpose(0, 2, 1, 3, 4).reshape(-1, kernel.out_channels // g, kh, kw)
    return _correlate(gp, flipped, g)


def _merge_backward(w1, w2, gout):
    """Adjoint of merge_sequential: gradient w.r.t. both dense kernels, each
    a weight adjoint of correlating gout: dw1 against w2, and dw2 against w1
    with both channel axes swapped (views, so no dense operand is copied)."""
    dw1 = _correlate_grad_w(gout, w2.data, w1.kh, w1.kw)
    dw2 = _correlate_grad_w(gout.transpose(1, 0, 2, 3), w1.data.transpose(1, 0, 2, 3),
                            w2.kh, w2.kw)
    return dw1, dw2.transpose(1, 0, 2, 3)


def _dense_grad_to_native(dense_grad, kernel):
    g = kernel.groups
    blocks = dense_grad.reshape(g, kernel.out_channels // g, g, -1, kernel.kh, kernel.kw)
    return blocks[np.arange(g), :, np.arange(g)].reshape(kernel.shape)


def _native_grad_to_param(grad, spec):
    return grad[:, 0, 0, 0] if spec.kind == "scaling" else grad


# --------------------------------------------------------------------------
# The two gradient routes
# --------------------------------------------------------------------------

def backward_through_squeeze(block, x, upstream):
    """Gradients of L = <upstream, conv(x, W_e)> for every trainable scalar,
    chained through the kernel-space merges. Returns a flat vector in
    ParamSet order."""
    ps = ParamSet(block)
    geom = block.eval_geometry()

    branch_dense = []
    branch_prefix = []
    branch_kernels = []
    for branch in block.branches:
        dense = [as_dense(w) for w in branch.weights]
        prefix = [dense[0]]
        for d in dense[1:]:
            prefix.append(merge_sequential(prefix[-1], d))
        k = prefix[-1]
        if branch.scaling is not None:
            k = apply_branch_scaling(k, branch.scaling)
        branch_dense.append(dense)
        branch_prefix.append(prefix)
        branch_kernels.append(k)
    w_e = branch_kernels[0] if len(branch_kernels) == 1 else merge_parallel(branch_kernels)

    g_e = _conv_grad_w(x, upstream, w_e, geom)

    grad_map = {}
    for bi, branch in enumerate(block.branches):
        g_b = g_e[_centered(g_e.shape, branch_kernels[bi].shape)]
        pre = branch_prefix[bi][-1]
        if branch.scaling is not None:
            grad_map[(bi, -1)] = np.einsum("opij,opij->o", pre.data, g_b, optimize=True)
            g_k = g_b * np.asarray(branch.scaling, dtype=np.float64)[:, None, None, None]
        else:
            g_k = g_b
        dense = branch_dense[bi]
        for li in range(len(dense) - 1, 0, -1):
            g_prev, g_wi = _merge_backward(branch_prefix[bi][li - 1], dense[li], g_k)
            native = _dense_grad_to_native(g_wi, branch.weights[li])
            grad_map[(bi, li)] = _native_grad_to_param(native, branch.layers[li])
            g_k = g_prev
        native = _dense_grad_to_native(g_k, branch.weights[0])
        grad_map[(bi, 0)] = _native_grad_to_param(native, branch.layers[0])
    return ps.flatten_grads(grad_map)


def backward_through_expanded(block, x, upstream):
    """Same gradients, chained through the expanded per-layer evaluation."""
    check_center_alignable(block)
    ps = ParamSet(block)
    geom = block.eval_geometry()
    s_h, s_w = geom.stride
    arr = _batched_arr(x)
    xp = _pad_hw(arr, geom.padding)
    keh, kew = block.effective_k
    h_f = xp.shape[2] - keh + 1
    w_f = xp.shape[3] - kew + 1

    up = _batched_arr(upstream)
    g_sum = np.zeros((arr.shape[0], block.out_ch, h_f, w_f))
    g_sum[:, :, ::s_h, ::s_w] = up

    grad_map = {}
    valid = ConvGeometry()
    for bi, branch in enumerate(block.branches):
        acts = [xp]
        for w in branch.weights:
            acts.append(conv2d_direct(Tensor(acts[-1]), w, valid).data)
        g_s = np.zeros((arr.shape[0], block.out_ch, acts[-1].shape[2], acts[-1].shape[3]))
        g_s[_centered(g_s.shape, g_sum.shape)] = g_sum
        if branch.scaling is not None:
            grad_map[(bi, -1)] = np.einsum("bchw,bchw->c", acts[-1], g_s, optimize=True)
            g_a = g_s * np.asarray(branch.scaling, dtype=np.float64)[None, :, None, None]
        else:
            g_a = g_s
        for li in range(len(branch.weights) - 1, -1, -1):
            w = branch.weights[li]
            native = _conv_grad_w(acts[li], g_a, w, valid)
            grad_map[(bi, li)] = _native_grad_to_param(native, branch.layers[li])
            if li > 0:
                g_a = _conv_grad_x(g_a, w)
    return ps.flatten_grads(grad_map)


def inner_loss(block, x, upstream):
    """L = <upstream, conv(x, W_e)> via the squeezed route."""
    y = block_forward_squeezed(block, x)
    return float(np.sum(_batched_arr(upstream) * _batched_arr(y)))


def finite_difference_grads(block, x, upstream, eps=1e-6):
    """Central finite differences of inner_loss over every trainable scalar."""
    ps = ParamSet(block)
    base = ps.get_flat()
    out = np.zeros_like(base)
    for i in range(base.size):
        probe = base.copy()
        probe[i] = base[i] + eps
        ps.set_flat(probe)
        hi = inner_loss(block, x, upstream)
        probe[i] = base[i] - eps
        ps.set_flat(probe)
        lo = inner_loss(block, x, upstream)
        out[i] = (hi - lo) / (2 * eps)
    ps.set_flat(base)
    return out


def gradcheck_block(block, x, upstream, eps=1e-6, fd_tol=1e-6, route_tol=1e-9):
    """Compare the two analytic routes with each other and with central
    finite differences. Relative error is scaled by max(1, |a|, |b|)."""
    g_sq = backward_through_squeeze(block, x, upstream)
    g_ex = backward_through_expanded(block, x, upstream)
    g_fd = finite_difference_grads(block, x, upstream, eps=eps)
    route_diff = float(np.max(np.abs(g_sq - g_ex))) if g_sq.size else 0.0
    denom = np.maximum(1.0, np.maximum(np.abs(g_sq), np.abs(g_fd)))
    fd_err = float(np.max(np.abs(g_sq - g_fd) / denom)) if g_sq.size else 0.0
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
        if self.eta <= 0:
            raise ValueError("eta must be > 0")
        if self.weight_decay < 0:
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
        velocity = grads
        if state is not None:
            state.velocity = velocity
    else:
        factor = cfg.eta * cfg.momentum if cfg.momentum_mode == "scaled" else cfg.momentum
        prev = state.velocity if state.velocity is not None else np.zeros_like(grads)
        velocity = factor * prev + grads
        state.velocity = velocity
    return (1.0 - cfg.eta * cfg.weight_decay) * params - cfg.eta * velocity


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

    def to_dict(self):
        def clean(v):
            if isinstance(v, np.ndarray):
                return v.tolist()
            if isinstance(v, (np.floating, np.integer)):
                return v.item()
            if isinstance(v, dict):
                return {k: clean(x) for k, x in v.items()}
            if isinstance(v, (list, tuple)):
                return [clean(x) for x in v]
            return v
        return clean({
            "probe": self.probe,
            "eta": self.eta,
            "residual_norm": self.residual_norm,
            "residual_ratio": self.residual_ratio,
            "first_order_diff": self.first_order_diff,
            "details": self.details,
        })


def _first_order(delta_fn, eta):
    """Richardson extrapolation: 4 d(eta/2) - d(eta) cancels the quadratic
    term, leaving the linear part of a one-step update exactly when the
    update is polynomial in the step size."""
    return 4.0 * delta_fn(eta / 2) - delta_fn(eta)


def probe_conv_scale_update(weight, gamma, x, g, eta):
    """One SGD step on the pair (gamma, W) with y = gamma * (W . x).

    Observed is the exact product update of the end-to-end weight;
    predicted is its first-order part; the residual is their gap, which
    shrinks like eta^2.
    """
    w = np.atleast_1d(np.asarray(weight, dtype=np.float64))
    xv = np.atleast_1d(np.asarray(x, dtype=np.float64))
    gamma = float(gamma)
    g = float(g)

    def delta(e):
        g1 = gamma - e * g * float(w @ xv)
        w1 = w - e * gamma * g * xv
        return g1 * w1 - gamma * w

    predicted = -eta * (gamma ** 2 * g * xv + float(w @ xv) * g * w)
    observed = delta(eta)
    residual = observed - predicted
    res_half = delta(eta / 2) - predicted / 2
    norm = float(np.max(np.abs(residual)))
    norm_half = float(np.max(np.abs(res_half)))
    return DynamicsReport(
        probe="convscale", eta=eta, residual_norm=norm,
        residual_ratio=(norm / norm_half) if norm_half > 0 else None,
        details={
            "observed": observed, "predicted": predicted,
            "end_to_end_before": gamma * w,
            "end_to_end_after": gamma * w + observed,
        })


def probe_shared_gamma(weight, gamma, x, g, n_branches, eta, rng=None,
                       split_normalized=True, parts=None, pin_gamma=False):
    """M-way additive split of W under one shared scaling.

    Because every summand receives the same gradient, an M-way split
    steps the summed weight M times as far per unit learning rate as the
    fused pair does. With split_normalized=True each summand steps with
    eta / M, so both systems take the same effective step and the
    structural comparison is isolated from that trivial rescaling; the
    raw unnormalized first-order gap is also reported.

    parts overrides the random split; pin_gamma freezes the scaling in
    both systems.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    w = np.atleast_1d(np.asarray(weight, dtype=np.float64))
    xv = np.atleast_1d(np.asarray(x, dtype=np.float64))
    gamma = float(gamma)
    g = float(g)
    m = int(n_branches)
    if parts is None:
        parts = [rng.standard_normal(w.shape) for _ in range(m - 1)]
        parts.append(w - sum(parts) if m > 1 else w.copy())
    else:
        parts = [np.atleast_1d(np.asarray(p, dtype=np.float64)) for p in parts]
        if len(parts) != m:
            raise ShapeError("parts", m, len(parts))
    s = np.sum(parts, axis=0)

    def delta_branch(e, lr_scale):
        g1 = gamma if pin_gamma else gamma - e * g * float(s @ xv)
        s1 = np.sum([p - (e * lr_scale) * gamma * g * xv for p in parts], axis=0)
        return g1 * s1 - gamma * s

    def delta_ref(e):
        g1 = gamma if pin_gamma else gamma - e * g * float(s @ xv)
        w1 = s - e * gamma * g * xv
        return g1 * w1 - gamma * s

    lr_scale = 1.0 / m if split_normalized else 1.0
    fo_branch = _first_order(lambda e: delta_branch(e, lr_scale), eta)
    fo_ref = _first_order(delta_ref, eta)
    fo_diff = float(np.max(np.abs(fo_branch - fo_ref)))

    fo_branch_raw = _first_order(lambda e: delta_branch(e, 1.0), eta)
    raw_diff = float(np.max(np.abs(fo_branch_raw - fo_ref)))

    gamma_term = 0.0 * s if pin_gamma else float(s @ xv) * g * s
    law = -eta * (gamma ** 2 * g * xv + gamma_term)
    residual = delta_branch(eta, lr_scale) - law
    res_half = delta_branch(eta / 2, lr_scale) - law / 2
    norm = float(np.max(np.abs(residual)))
    norm_half = float(np.max(np.abs(res_half)))
    return DynamicsReport(
        probe="shared", eta=eta, residual_norm=norm,
        residual_ratio=(norm / norm_half) if norm_half > 0 else None,
        first_order_diff=fo_diff,
        details={
            "n_branches": m,
            "split_normalized": split_normalized,
            "unnormalized_first_order_diff": raw_diff,
            "observed": delta_branch(eta, lr_scale),
            "reference": delta_ref(eta),
        })


def probe_branchwise_gamma(branches, x, g, eta):
    """M branches with per-branch scalings against the conv-scale pair that
    matches the end-to-end weight and the total scaling energy.

    The reference pair is (gamma_r, W_r) with gamma_r = sqrt(sum gamma_j^2)
    and W_r = sum(gamma_j W_j) / gamma_r, the unique pair that reproduces
    the branch system's first-order update whenever the active branches
    collapse (at most one active, or identical states). When at least two
    active branches differ, no pair reproduces it and the first-order gap
    is the structural signature of branch-wise scaling.
    """
    xv = np.atleast_1d(np.asarray(x, dtype=np.float64))
    g = float(g)
    gammas = [float(gm) for gm, _ in branches]
    ws = [np.atleast_1d(np.asarray(w, dtype=np.float64)) for _, w in branches]

    def delta_branch(e):
        total = np.zeros_like(xv)
        before = np.zeros_like(xv)
        for gm, w in zip(gammas, ws):
            g1 = gm - e * g * float(w @ xv)
            w1 = w - e * gm * g * xv
            total = total + g1 * w1
            before = before + gm * w
        return total - before

    e2e = np.sum([gm * w for gm, w in zip(gammas, ws)], axis=0)
    energy = float(np.sum(np.square(gammas)))
    if energy > 0:
        gamma_r = float(np.sqrt(energy))
        w_r = e2e / gamma_r
    else:
        gamma_r = 1.0
        w_r = np.sum(ws, axis=0)

    def delta_ref(e):
        g1 = gamma_r - e * g * float(w_r @ xv)
        w1 = w_r - e * gamma_r * g * xv
        return g1 * w1 - gamma_r * w_r

    fo_branch = _first_order(delta_branch, eta)
    fo_ref = _first_order(delta_ref, eta)
    fo_diff = float(np.max(np.abs(fo_branch - fo_ref)))

    active = [bool(np.any(w != 0) or gm != 0) for gm, w in zip(gammas, ws)]
    act_idx = [i for i, a in enumerate(active) if a]
    per_branch_fo = [-eta * (gammas[i] ** 2 * g * xv + float(ws[i] @ xv) * g * ws[i])
                     for i in range(len(ws))]
    pair_gaps = [float(np.max(np.abs(per_branch_fo[i] - per_branch_fo[j])))
                 for ai, i in enumerate(act_idx) for j in act_idx[ai + 1:]]
    distinct = all(np.any(ws[i] != ws[j])
                   for ai, i in enumerate(act_idx) for j in act_idx[ai + 1:])
    conditions_hold = len(act_idx) >= 2 and distinct

    law = -eta * np.sum([gammas[i] ** 2 * g * xv + float(ws[i] @ xv) * g * ws[i]
                         for i in range(len(ws))], axis=0)
    residual = delta_branch(eta) - law
    res_half = delta_branch(eta / 2) - law / 2
    norm = float(np.max(np.abs(residual)))
    norm_half = float(np.max(np.abs(res_half)))
    return DynamicsReport(
        probe="branchwise", eta=eta, residual_norm=norm,
        residual_ratio=(norm / norm_half) if norm_half > 0 else None,
        first_order_diff=fo_diff,
        details={
            "n_branches": len(ws),
            "active": active,
            "conditions_hold": bool(conditions_hold),
            "min_branch_gradient_gap": min(pair_gaps) if pair_gaps else None,
            "observed": delta_branch(eta),
            "reference": delta_ref(eta),
        })


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


def _chain_product(chain):
    acc = chain[0]
    for w in chain[1:]:
        acc = w @ acc
    return acc


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

    w_e = _chain_product(chain)[0]

    def delta(e):
        stepped = []
        for i, w in enumerate(chain):
            suffix = np.eye(w.shape[0]) if i == n - 1 else _chain_product(chain[i + 1:])
            prefix_x = xv if i == 0 else _chain_product(chain[:i]) @ xv
            grad = g * np.outer(suffix[0], prefix_x)
            stepped.append(w - e * grad)
        return _chain_product(stepped)[0] - w_e

    g_vec = g * xv
    norm_we = float(np.linalg.norm(w_e))
    predicted = -eta * (norm_we ** (2.0 - 2.0 / n)) * (
        g_vec + (n - 1) * project_onto(w_e, g_vec))
    observed = delta(eta)
    residual = observed - predicted
    res_half = delta(eta / 2) - predicted / 2
    norm = float(np.max(np.abs(residual)))
    norm_half = float(np.max(np.abs(res_half)))
    return DynamicsReport(
        probe="lemma", eta=eta, residual_norm=norm,
        residual_ratio=(norm / norm_half) if norm_half > 0 else None,
        details={
            "n_layers": n,
            "balanced": bool(balanced),
            "observed": observed,
            "predicted": predicted,
            "end_to_end_before": w_e,
        })


# --------------------------------------------------------------------------
# Toy training and branch diagnostics
# --------------------------------------------------------------------------

def train_toy(block, target_kernel, steps, cfg, mode="online", seed=0,
              batch=2, hw=(8, 8), record_params=False):
    """Fit the squeezed kernel to a target by gradient descent on
    0.5 * mean((conv(x, W_e) - conv(x, target))^2) over one seeded batch.

    mode "online" differentiates through the squeeze; "offline" through
    the expanded evaluation. Same seed means the same batch and the same
    trajectory up to floating-point noise between the two routes.
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
    x = Tensor(rng.standard_normal((batch, block.in_ch) + tuple(hw)),
               dtype=block.dtype)
    geom = block.eval_geometry()
    y_t = conv2d_direct(x, target_kernel.astype(block.dtype), geom).data

    ps = ParamSet(block)
    state = SgdState()
    backward = backward_through_squeeze if mode == "online" else backward_through_expanded
    losses = []
    history = []

    def current_loss():
        y = conv2d_direct(x, squeeze_block(block).kernel, geom).data
        r = y - y_t
        return float(0.5 * np.mean(r * r)), r

    for step in range(steps):
        loss, r = current_loss()
        if not np.isfinite(loss):
            return {"losses": losses, "final_loss": loss, "diverged_at": step,
                    "params": history}
        losses.append(loss)
        upstream = Tensor(r / r.size)
        grads = backward(block, x, upstream)
        ps.set_flat(sgd_step(ps.get_flat(), grads, cfg, state))
        if record_params:
            history.append(ps.get_flat())
    final_loss, _ = current_loss()
    return {"losses": losses, "final_loss": final_loss, "diverged_at": None,
            "params": history}


def _aligned_branch_kernels(block):
    """Each branch squeezed on its own, zero-embedded at the common extents."""
    kernels = [squeeze_branch(b).data for b in block.branches]
    hw = tuple(max(k.shape[axis] for k in kernels) for axis in (2, 3))
    bufs = [np.zeros(k.shape[:2] + hw) for k in kernels]
    for buf, k in zip(bufs, kernels):
        buf[_centered(buf.shape, k.shape)] = k
    return bufs


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

