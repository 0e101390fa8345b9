"""Constructors for the initial-state families used by the game.

Families: GHZ cat states, products of symmetric Bell pairs, the
x-weighted GHZ/Bell superposition, the exponential entangler state at
angle gamma, and products of three-qubit W states. Every constructor
returns a pure state; a recipe's fidelity f < 1 stands for the noisy
start f|psi><psi| + (1-f)I/2^n, which the game adds as an exact floor
on top of the pure payoff.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import PureState, _check_qubit_count


class StateFamily(enum.Enum):
    GHZ = "ghz"
    BELL_PRODUCT = "bell"
    GHZ_BELL_MIXTURE = "mixture"
    EXPONENTIAL_ENTANGLER = "exp"
    W3_PRODUCT = "w3"


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
        if self.n_qubits < 2:
            raise ValueError("n_qubits must be >= 2")
        if not 0.0 <= self.x <= 1.0:
            raise ValueError(f"x must be in [0, 1], got {self.x}")
        if not 0.0 <= self.f <= 1.0:
            raise ValueError(f"f must be in [0, 1], got {self.f}")
        if not 0.0 <= self.gamma <= math.pi / 2:
            raise ValueError(f"gamma must be in [0, pi/2], got {self.gamma}")
        if self.family in (StateFamily.BELL_PRODUCT, StateFamily.GHZ_BELL_MIXTURE):
            if self.n_qubits % 2:
                raise ValueError(f"{self.family.value} requires even n_qubits")
        if self.family is StateFamily.W3_PRODUCT and self.n_qubits % 3:
            raise ValueError("w3 product requires n_qubits divisible by 3")


def make_ghz(n: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2)."""
    if n < 2:
        raise ValueError("GHZ state needs n >= 2")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1 / math.sqrt(2)
    return PureState(n, amps)


def make_bell_product(n: int) -> PureState:
    """((|01> + |10>)/sqrt(2))^(n/2)."""
    if n < 2 or n % 2:
        raise ValueError("Bell product needs even n >= 2")
    pair = np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2)
    amps = np.array([1.0], dtype=complex)
    for _ in range(n // 2):
        amps = np.kron(amps, pair)
    return PureState(n, amps)


def make_ghz_bell_mixture(n: int, x: float) -> PureState:
    """Superposition of the GHZ cat terms (weight x) with the Bell product.

    The cat term enters as (x/sqrt(2))(|0...0> + |1...1>) so the total
    norm is exactly 1 for every x; we renormalize defensively anyway.
    """
    if n < 2 or n % 2:
        raise ValueError("mixture needs even n >= 2")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    amps = math.sqrt(1 - x**2) * make_bell_product(n).amplitudes.copy()
    amps[0] += x / math.sqrt(2)
    amps[-1] += x / math.sqrt(2)
    return PureState.from_amplitudes(n, amps)


def make_exponential(n: int, gamma: float) -> PureState:
    """cos(gamma/2)|0...0> + i sin(gamma/2)|1...1>.

    Closed form of exp(i gamma/2 X^n)|0...0>; exact because X^n
    squares to the identity.
    """
    if n < 2:
        raise ValueError("entangler state needs n >= 2")
    if not 0.0 <= gamma <= math.pi / 2:
        raise ValueError(f"gamma must be in [0, pi/2], got {gamma}")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = math.cos(gamma / 2)
    amps[-1] = 1j * math.sin(gamma / 2)
    return PureState(n, amps)


def make_w3_product(n: int) -> PureState:
    """|W3>^(n/3) with |W3> = (|001> + |010> + |100>)/sqrt(3)."""
    if n < 3 or n % 3:
        raise ValueError("W3 product needs n divisible by 3")
    w3 = np.zeros(8, dtype=complex)
    w3[[1, 2, 4]] = 1 / math.sqrt(3)
    amps = np.array([1.0], dtype=complex)
    for _ in range(n // 3):
        amps = np.kron(amps, w3)
    return PureState(n, amps)


def build_pure(recipe: InitialStateRecipe) -> PureState:
    """The pure state a recipe describes, before any noise is added.

    The qubit count is checked before any family builder runs, so a
    recipe beyond MAX_QUBITS fails without building its 2^n vector.
    """
    n = recipe.n_qubits
    _check_qubit_count(n)
    if recipe.family is StateFamily.GHZ:
        return make_ghz(n)
    if recipe.family is StateFamily.BELL_PRODUCT:
        return make_bell_product(n)
    if recipe.family is StateFamily.GHZ_BELL_MIXTURE:
        return make_ghz_bell_mixture(n, recipe.x)
    if recipe.family is StateFamily.EXPONENTIAL_ENTANGLER:
        return make_exponential(n, recipe.gamma)
    if recipe.family is StateFamily.W3_PRODUCT:
        return make_w3_product(n)
    raise ValueError(f"unknown family {recipe.family!r}")
