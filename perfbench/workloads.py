"""The benchmark's workloads: which blocks it trains and verifies, at what size.

Every workload runs the same three routes, so every run reports every
end-to-end metric:

  online   one training step through the squeezed kernel
           (backward_through_squeeze), as train_toy builds it;
  offline  the same step through the expanded block
           (backward_through_expanded), from the same initial block;
  verify   squeeze_block -> write_okt -> read_okt -> conv2d_direct, checked
           against expanded_forward on a fresh input (the deploy path of
           `orepa squeeze` followed by `orepa verify --kernel`).

The workloads differ in where that work lands. All arithmetic is f64, and
SGD runs without momentum or weight decay, as `orepa train-toy` defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Case:
    """One block and the feature-map shape it is trained and verified on."""

    preset: str
    ch: int
    k: int
    hw: tuple
    batch: int
    options: dict = field(default_factory=dict)
    # SGD step size. deepstem's three stacked positive-initialised 3x3
    # layers start at a loss near 5e3 and diverge within five steps at
    # 0.05 (and at 0.005); 3e-4 stays finite for over 150 steps.
    eta: float = 0.05

    def spec_doc(self, seed):
        """The block-spec document `orepa` reads for this case."""
        doc = {"in_ch": self.ch, "out_ch": self.ch, "k": self.k, "dtype": "f64",
               "seed": seed, "preset": self.preset}
        if self.options:
            doc["options"] = dict(self.options)
        return doc


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cases: tuple


_PRESETS32 = (
    Case("orepa3x3", 32, 3, (28, 28), 4),
    Case("orepa3x3", 32, 3, (28, 28), 4, {"stride": [2, 2]}),
    Case("orepa1x1", 32, 1, (28, 28), 4),
    Case("deepstem", 32, 3, (28, 28), 4, eta=3e-4),
    Case("orepavgg", 32, 3, (28, 28), 4),
    Case("dbb", 32, 5, (28, 28), 4),
)

WORKLOADS = {w.name: w for w in (
    Workload(
        "train_paper56",
        "paper regime, orepa3x3 64ch 56x56: large feature maps and small kernels, "
        "so the convolutions and their weight adjoint dominate both routes",
        (Case("orepa3x3", 64, 3, (56, 56), 2),)),
    Workload(
        "train_wide8",
        "kernel-space regime, orepavgg x8 128ch 8x8: merges of 1024-group depthwise "
        "kernels dominate the online step, which allocates more than offline",
        (Case("orepavgg", 128, 3, (8, 8), 2, {"expansion": 8}),)),
    Workload(
        "verify_presets",
        "all five presets, 1x1 to 7x7 extents, stride 2 and depthwise groups at "
        "32ch 28x28; forward-only verify ops show a forward/adjoint trade-off",
        _PRESETS32),
)}
