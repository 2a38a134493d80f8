"""Discrete roto-translation equivariant convolutions with attention, on a
small tape-based autodiff core.

Feature maps are plain [N, C, |H|, Y, X] Tensors (pose extent 1 marks a
planar map); the layer that reads one supplies its group.  Import from the submodules: groups,
tensor, autodiff, gconv, attention, nn, data, training, verify and cli.
"""

__version__ = "0.1.0"
