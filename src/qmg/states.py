"""The initial-state families used by the game, one table row each.

Families: GHZ cat states, products of symmetric Bell pairs, the
x-weighted GHZ/Bell superposition, the exponential entangler state at
angle gamma, and products of three-qubit W states. Each is a sum of at
most three product terms c * v^(n/block) over blocks of one to three
qubits: `_FAMILIES` lists them and `build_pure` is the one builder.
Every state is pure; a recipe's fidelity f < 1 stands for the noisy
start f|psi><psi| + (1-f)I/2^n, which the game adds as an exact floor.
"""
from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import _check_qubit_count, _check_unit_rows


class StateFamily(enum.Enum):
    GHZ = "ghz"
    BELL_PRODUCT = "bell"
    GHZ_BELL_MIXTURE = "mixture"
    EXPONENTIAL_ENTANGLER = "exp"
    W3_PRODUCT = "w3"


_KET0, _KET1 = np.eye(2, dtype=complex)
_KET00, _KET11 = np.eye(4, dtype=complex)[[0, 3]]
_PAIR = np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2)
_W3 = np.array([0, 1, 1, 0, 1, 0, 0, 0], dtype=complex) / math.sqrt(3)
_SQRT_HALF = 1 / math.sqrt(2)

# A row: (block, message for an n_qubits that is no multiple of block,
# terms(recipe) as (coefficient, block vector) pairs, renormalise). Only the
# mixture is divided by its computed norm: the committed tables carry the
# bits of that division, and dividing any other family by its norm moves bits.
_FAMILIES = {
    StateFamily.GHZ: (1, None, lambda r: [(_SQRT_HALF, _KET0), (_SQRT_HALF, _KET1)], False),
    StateFamily.BELL_PRODUCT: (2, "bell requires even n_qubits", lambda r: [(1, _PAIR)], False),
    # the cat terms carry x/sqrt(2) each, so the norm is 1 for every x
    StateFamily.GHZ_BELL_MIXTURE: (
        2,
        "mixture requires even n_qubits",
        lambda r: [
            (math.sqrt(1 - r.x**2), _PAIR),
            (r.x / math.sqrt(2), _KET00),
            (r.x / math.sqrt(2), _KET11),
        ],
        True,
    ),
    # exp(i gamma/2 X^n)|0...0> in closed form, exact because (X^n)^2 = I
    StateFamily.EXPONENTIAL_ENTANGLER: (
        1,
        None,
        lambda r: [(math.cos(r.gamma / 2), _KET0), (1j * math.sin(r.gamma / 2), _KET1)],
        False,
    ),
    StateFamily.W3_PRODUCT: (
        3, "w3 product requires n_qubits divisible by 3", lambda r: [(1, _W3)], False
    ),
}


@dataclass(frozen=True)
class InitialStateRecipe:
    """Which family to build, for how many qubits, with which parameters.

    x is the GHZ/Bell mixture weight, f the fidelity of the noisy
    mixture (f=1 means pure), gamma the entangler angle.
    """

    family: StateFamily
    n_qubits: int
    x: float = 1.0
    f: float = 1.0
    gamma: float = math.pi / 2

    def __post_init__(self):
        if not isinstance(self.n_qubits, numbers.Integral):
            raise ValueError(f"n_qubits must be an int, got {self.n_qubits!r}")
        if self.n_qubits < 2:
            raise ValueError("n_qubits must be >= 2")
        if not 0.0 <= self.x <= 1.0:
            raise ValueError(f"x must be in [0, 1], got {self.x}")
        if not 0.0 <= self.f <= 1.0:
            raise ValueError(f"f must be in [0, 1], got {self.f}")
        if not 0.0 <= self.gamma <= math.pi / 2:
            raise ValueError(f"gamma must be in [0, pi/2], got {self.gamma}")
        block, n_error, _, _ = _FAMILIES[self.family]
        if self.n_qubits % block:
            raise ValueError(n_error)


def _tensor_power(v: np.ndarray, k: int) -> np.ndarray:
    """v^(k), multiplied left to right; the tables depend on that order."""
    out = v
    for _ in range(k - 1):
        out = np.multiply.outer(out, v).ravel()
    return out


def build_pure(recipe: InitialStateRecipe) -> np.ndarray:
    """The pure state a recipe describes, before any noise is added.

    Returns a read-only (2^n,) amplitude vector with a checked unit norm.
    The qubit count is checked before any term is built, so a recipe
    beyond MAX_QUBITS fails without building its 2^n vector.
    """
    n = recipe.n_qubits
    _check_qubit_count(n)
    block, _, terms, renormalise = _FAMILIES[recipe.family]
    powers = [c * _tensor_power(v, n // block) for c, v in terms(recipe)]
    amps = sum(powers[1:], powers[0])
    if renormalise:
        amps = amps / np.linalg.norm(amps)
    _check_unit_rows(amps[None])
    amps.setflags(write=False)
    return amps
