"""Pins the public surface: orepa.__all__, the signature of every exported
callable, and the CLI's subcommands and flags. Dropping or changing any of
them needs a visible edit here."""

import argparse
import inspect

import orepa
from orepa.cli import build_parser

SIGNATURES = {
    "BlockGraph": "(branches: 'list', output_geometry: 'ConvGeometry' = <factory>) -> None",
    "Branch": "(layers: 'list', weights: 'list', scaling: 'np.ndarray' = None, "
              "scaling_trainable: 'bool' = True, name: 'str' = '') -> None",
    "ConvGeometry": "(stride: 'tuple' = (1, 1), padding: 'tuple' = (0, 0, 0, 0)) -> None",
    "DynamicsReport": "(probe: 'str', eta: 'float', residual_norm: 'float', "
                      "residual_ratio: 'float' = None, first_order_diff: 'float' = None, "
                      "details: 'dict' = <factory>) -> None",
    "InitRule": "(kind: 'str' = 'kaiming_uniform', theta: 'float' = 1.7320508075688772, "
                "value: 'float' = 1.0, symmetric: 'bool' = False) -> None",
    "KernelTensor": "(data, groups=1, dtype=None)",
    "LayerSpec": "(kind: 'str', in_ch: 'int', out_ch: 'int', k: 'int' = 1, groups: 'int' = 1, "
                 "expansion: 'int' = 1, init: 'InitRule' = None, trainable: 'bool' = None) -> None",
    "MergeError": "exception(ValueError)",
    "OptimizerConfig": "(eta: 'float', weight_decay: 'float' = 0.0, momentum: 'float' = 0.0, "
                       "momentum_mode: 'str' = 'scaled') -> None",
    "PRESETS": "('orepa3x3', 'orepa1x1', 'deepstem', 'orepavgg', 'dbb')",
    "ParamSet": "(block)",
    "SCALING_INIT": "{'1x1': 1.0, 'kxk': 0.25, '1x1_kxk': 0.5, '1x1_pool': 0.5, "
                    "'1x1_filter': 0.0, 'dw_pw': 0.5}",
    "SgdState": "()",
    "ShapeError": "exception(ValueError)",
    "SqueezeResult": "(kernel: 'KernelTensor', effective_k: 'tuple', trace: 'list') -> None",
    "Tensor": "(data, dtype=None)",
    "add": "(x, y)",
    "apply_branch_scaling": "(w, gamma)",
    "as_dense": "(w)",
    "backward_through_expanded": "(block, x, upstream)",
    "backward_through_squeeze": "(block, x, upstream)",
    "block_forward_squeezed": "(block, x)",
    "branch_similarity": "(block)",
    "build_branch": "(layer_specs, rng, dtype='f64', scaling=None, name='', "
                    "scaling_trainable=True)",
    "build_preset": "(preset, in_ch, out_ch, k=3, dtype='f64', seed=0, stride=(1, 1), "
                    "expansion=None, internal_ch=None, frozen_scaling=False)",
    "channel_norm_profile": "(block)",
    "conv2d_direct": "(x, w, geom=None, bias=None)",
    "cost_report": "(block, feature_hw, batch)",
    "expanded_forward": "(block, x)",
    "finite_difference_grads": "(block, x, upstream, eps=1e-06)",
    "gradcheck_block": "(block, x, upstream, eps=1e-06, fd_tol=None, route_tol=None)",
    "linearize": "(block)",
    "materialize": "(spec, rng, dtype='f64')",
    "merge_parallel": "(kernels)",
    "merge_sequential": "(w1, w2)",
    "pad_spatial": "(x, p_t, p_b, p_l, p_r)",
    "probe_branchwise_gamma": "(branches, x, g, eta)",
    "probe_conv_scale_update": "(weight, gamma, x, g, eta)",
    "probe_multilayer_lemma": "(n_layers, eta, input_dim=5, hidden_dim=3, scale=1.0, "
                              "rng=None, chain=None, x=None, g=1.0)",
    "probe_shared_gamma": "(weight, gamma, x, g, n_branches, eta, rng=None, "
                          "split_normalized=True, parts=None, pin_gamma=False)",
    "project_onto": "(w, g_vec)",
    "read_okt": "(path)",
    "same_padding": "(kh, kw, stride=(1, 1))",
    "scale_by_channel": "(x, gamma)",
    "sgd_step": "(params, grads, cfg, state=None)",
    "squeeze_block": "(block)",
    "squeeze_branch": "(branch, trace=None)",
    "sum_over": "(tensors)",
    "train_toy": "(block, target_kernel, steps, cfg, mode='online', seed=0, batch=2, "
                 "hw=(8, 8), record_params=False)",
    "write_okt": "(path, obj)",
}

CLI_FLAGS = {
    "squeeze": ["--json", "--out", "--trace", "spec"],
    "verify": ["--batch", "--hw", "--json", "--kernel", "--tol", "--trials", "spec"],
    "gradcheck": ["--batch", "--hw", "--json", "spec"],
    "dynamics": ["--eta", "--json", "--layers", "--probe", "spec"],
    "bench": ["--batch", "--hw", "--json", "spec"],
    "train-toy": ["--batch", "--eta", "--hw", "--json", "--mode", "--momentum", "--save",
                  "--steps", "--weight-decay", "spec"],
    "analyze": ["--json", "--norms-csv", "--similarity-csv", "ckpt"],
}


def _describe(obj):
    if inspect.isclass(obj) and issubclass(obj, Exception):
        return "exception(" + ", ".join(b.__name__ for b in obj.__bases__) + ")"
    if callable(obj):
        return str(inspect.signature(obj))
    return repr(obj)


def _flags(parser):
    return sorted(o for a in parser._actions if not isinstance(a, argparse._HelpAction)
                  for o in (a.option_strings or [a.dest]))


def test_all_is_pinned():
    assert sorted(orepa.__all__) == sorted(SIGNATURES)


def test_exported_signatures_are_pinned():
    got = {name: _describe(getattr(orepa, name)) for name in orepa.__all__}
    assert got == SIGNATURES


def test_cli_subcommands_and_flags_are_pinned():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {cmd: _flags(sp) for cmd, sp in sub.choices.items()} == CLI_FLAGS
    assert _flags(parser) == ["--version", "command"]
