"""Independent brute-force oracles used to check the library.

Everything here is written as literal loop nests over numpy scalars,
deliberately ignorant of how the package implements the same math.
Keep it slow and obvious.
"""

import numpy as np


def conv2d_loop(x, w, stride=(1, 1), padding=(0, 0, 0, 0), groups=1, bias=None):
    """Quadruple-loop cross-correlation on a zero-padded input.

    x: (B, Ci, H, W) array, w: (Co, Ci // groups, kh, kw) array.
    Output pixel (h, w) reads the padded input window anchored at
    (h * sH, w * sW), accumulating scalar products in loop order
    (ci, kh, kw).
    """
    b_n, ci, h_in, w_in = x.shape
    co, cig, kh, kw = w.shape
    s_h, s_w = stride
    p_t, p_b, p_l, p_r = padding
    cog = co // groups

    xp = np.zeros((b_n, ci, h_in + p_t + p_b, w_in + p_l + p_r), dtype=x.dtype)
    xp[:, :, p_t:p_t + h_in, p_l:p_l + w_in] = x

    h_out = (h_in + p_t + p_b - kh) // s_h + 1
    w_out = (w_in + p_l + p_r - kw) // s_w + 1
    y = np.zeros((b_n, co, h_out, w_out), dtype=x.dtype)
    for b in range(b_n):
        for o in range(co):
            g = o // cog
            for i in range(h_out):
                for j in range(w_out):
                    acc = x.dtype.type(0)
                    for c in range(cig):
                        for a in range(kh):
                            for d in range(kw):
                                acc += w[o, c, a, d] * xp[b, g * cig + c, i * s_h + a, j * s_w + d]
                    if bias is not None:
                        acc += bias[o]
                    y[b, o, i, j] = acc
    return y


def conv_grad_w_loop(x, g, kh, kw, stride=(1, 1), groups=1):
    """Weight gradient d<g, conv2d_loop(x, w, stride, groups=groups)> / dw of
    an unpadded convolution by literal summation.

    x: (B, Ci, H, W), g: (B, Co, Ho, Wo); returns (Co, Ci // groups, kh, kw).
    Tap (a, d) of output channel o and input channel c sums, over batch and
    output pixels in that order, g at the pixel times the input it reads.
    """
    b_n, ci = x.shape[:2]
    _, co, h_out, w_out = g.shape
    s_h, s_w = stride
    cig, cog = ci // groups, co // groups
    dw = np.zeros((co, cig, kh, kw), dtype=np.result_type(x, g))
    for o in range(co):
        grp = o // cog
        for c in range(cig):
            for a in range(kh):
                for d in range(kw):
                    acc = dw.dtype.type(0)
                    for b in range(b_n):
                        for i in range(h_out):
                            for j in range(w_out):
                                acc += g[b, o, i, j] * x[b, grp * cig + c, i * s_h + a, j * s_w + d]
                    dw[o, c, a, d] = acc
    return dw


def branch_scaling_grad_loop(branch_out, g_sum):
    """Gradient of <g_sum, gamma * crop(branch_out)> in gamma by literal summation.

    branch_out: (B, C, H, W), the branch's unscaled output; g_sum: (B, C, Ho,
    Wo), the gradient at the block's unstrided output, which reads the window
    of branch_out centered on its extents. Channel c sums, over batch and
    output pixels in that order, the cropped output times g_sum.
    """
    b_n, c_n, h, w = branch_out.shape
    _, _, h_out, w_out = g_sum.shape
    mh, mw = (h - h_out) // 2, (w - w_out) // 2
    out = np.zeros(c_n)
    for c in range(c_n):
        acc = 0.0
        for b in range(b_n):
            for i in range(h_out):
                for j in range(w_out):
                    acc += branch_out[b, c, mh + i, mw + j] * g_sum[b, c, i, j]
        out[c] = acc
    return out


def merge_kernels_loop(w1, w2):
    """Inter-weight convolution by literal padded, index-inverted summation.

    w1: (C1, C0, K1h, K1w), w2: (C2, C1, K2h, K2w). The first kernel is
    zero-padded by (K2 - 1) on every spatial side, then for each output
    tap the second kernel's taps are read in inverted order (note the
    minus signs on the padded indices).
    """
    c1, c0, k1h, k1w = w1.shape
    c2, c1b, k2h, k2w = w2.shape
    assert c1 == c1b
    ph, pw = k2h - 1, k2w - 1
    padded = np.zeros((c1, c0, k1h + 2 * ph, k1w + 2 * pw), dtype=w1.dtype)
    padded[:, :, ph:ph + k1h, pw:pw + k1w] = w1

    ch = (k2h - 1) // 2
    cw = (k2w - 1) // 2
    keh, kew = k1h + k2h - 1, k1w + k2w - 1
    out = np.zeros((c2, c0, keh, kew), dtype=w1.dtype)
    for q in range(c2):
        for p in range(c0):
            for m in range(keh):
                for n in range(kew):
                    u = m + (k2h - 1) - ch
                    v = n + (k2w - 1) - cw
                    acc = w1.dtype.type(0)
                    for c in range(c1):
                        for a in range(k2h):
                            for d in range(k2w):
                                acc += w2[q, c, a, d] * padded[c, p, u - (a - ch), v - (d - cw)]
                    out[q, p, m, n] = acc
    return out


def merge_backward_loop(w1, w2, gout, groups=1, groups2=1):
    """Both weight gradients of <gout, merge(w1, w2)> by literal summation.

    w1: (C1, C0 // groups, K1h, K1w) and w2: (C2, C1 // groups2, K2h, K2w),
    each grouped, gout: (C2, C0, K1h + K2h - 1, K1w + K2w - 1). Middle channel
    c lies in w1's group g and in w2's group h, whose outputs q it feeds
    through w2's input slot c - h * C1 // groups2. Merged tap (i + a, j + b)
    of output q and input channel g * C0 // groups + p holds
    w2[q, slot, a, b] * w1[c, p, i, j] summed over such c, so each gradient
    sums gout over the other factor.
    """
    c1, cig, k1h, k1w = w1.shape
    c2, cig2, k2h, k2w = w2.shape
    cog, cog2 = c1 // groups, c2 // groups2
    dw1 = np.zeros(w1.shape)
    dw2 = np.zeros(w2.shape)
    for c in range(c1):
        g, h = c // cog, c // cig2
        slot = c - h * cig2
        for p in range(cig):
            for i in range(k1h):
                for j in range(k1w):
                    for q in range(h * cog2, (h + 1) * cog2):
                        for a in range(k2h):
                            for d in range(k2w):
                                gv = gout[q, g * cig + p, i + a, j + d]
                                dw1[c, p, i, j] += gv * w2[q, slot, a, d]
                                dw2[q, slot, a, d] += gv * w1[c, p, i, j]
    return dw1, dw2


def freq_filter_loop(channels, kh, kw):
    """Cosine-basis depthwise taps evaluated straight from the closed form."""
    import math

    out = np.zeros((channels, 1, kh, kw))
    half = channels // 2
    for c in range(channels):
        for a in range(kh):
            for d in range(kw):
                if c < half:
                    out[c, 0, a, d] = math.cos((c + 1) * (a + 0.5) * math.pi / kh)
                else:
                    out[c, 0, a, d] = math.cos((c - half + 1) * (d + 0.5) * math.pi / kw)
    return out
