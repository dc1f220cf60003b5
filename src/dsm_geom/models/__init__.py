"""Built-in catalogue of example data set models.

Each constructor returns a :class:`~dsm_geom.core.ModelDefinition` whose
oracle record carries the closed forms used for testing (metric,
connection, affine coordinates, Massieu potential, geodesics).
"""
from __future__ import annotations

import inspect

from ..core import ModelDefinition, bad_leaf
from ..errors import DomainError
from .gaussian import gaussian_kl, gaussian_sumsq
from .gce import grand_canonical
from .gumbel import gumbel
from .regression import regression_dlambda, regression_ls
from .vmf import vmf_cylinder, vmf_sphere

_BUILDERS = {
    "gaussian-kl": gaussian_kl,
    "gaussian-sumsq": gaussian_sumsq,
    "regression-ls": regression_ls,
    "regression-dlambda": regression_dlambda,
    "gce": grand_canonical,
    "vmf-sphere": vmf_sphere,
    "vmf-cylinder": vmf_cylinder,
    "gumbel": gumbel,
}

MODEL_NAMES = tuple(_BUILDERS)


def build(name: str, **kwargs) -> ModelDefinition:
    """Construct a catalogue entry by its CLI name; an option with a sequence
    default takes a flat list of ``core.finite_real`` numbers, any other one."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown model '{name}'; choose from {', '.join(_BUILDERS)}"
        ) from None
    parameters = inspect.signature(builder).parameters
    for option, value in kwargs.items():
        listed = option in parameters and isinstance(parameters[option].default, (tuple, list))
        if (leaf := bad_leaf(value, int(listed))) is not None:
            raise DomainError(f"{name} option '{option}' needs finite numbers, got {leaf}")
    return builder(**kwargs)


def options(name: str) -> tuple:
    """The constructor options of a catalogue entry: its builder's parameters."""
    return tuple(inspect.signature(_BUILDERS[name]).parameters)


def catalogue() -> dict:
    """All entries with default constructor arguments."""
    return {name: build(name) for name in MODEL_NAMES}


__all__ = [
    "MODEL_NAMES",
    "build",
    "catalogue",
    "options",
    "gaussian_kl",
    "gaussian_sumsq",
    "regression_ls",
    "regression_dlambda",
    "grand_canonical",
    "vmf_sphere",
    "vmf_cylinder",
    "gumbel",
]
