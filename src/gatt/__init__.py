"""Discrete roto-translation equivariant convolutions with attention, on a
small tape-based autodiff core.

Feature maps are [N, C, |H|, Y, X] tensors tagged with their symmetry group
(pose extent 1 marks a planar map).  Import from the submodules: groups,
tensor, autodiff, gconv, attention, nn, data, training, verify and cli.
"""

__version__ = "0.1.0"
