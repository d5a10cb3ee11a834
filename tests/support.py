"""Shared hypothesis strategies and small helpers for the test suite."""

import argparse

import numpy as np
from hypothesis import strategies as st

from zalcman import HerglotzMeasure
from zalcman.geometry import Covector, dual_norm
from zalcman.mappings import LiftedMapSpec

finite_floats = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)

unit_complex = st.builds(
    complex,
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
)


def measures(max_atoms: int = 8) -> st.SearchStrategy[HerglotzMeasure]:
    """Discrete boundary measures: weights on the simplex, angles on the circle."""

    def build(raw, angles):
        n = min(len(raw), len(angles))
        total = sum(raw[:n])
        return HerglotzMeasure(
            tuple((w / total, t) for w, t in zip(raw[:n], angles[:n]))
        )

    sizes = st.shared(st.integers(min_value=1, max_value=max_atoms), key="natoms")
    return st.builds(
        build,
        sizes.flatmap(
            lambda n: st.lists(
                st.floats(min_value=0.01, max_value=1.0), min_size=n, max_size=n
            )
        ),
        sizes.flatmap(
            lambda n: st.lists(
                st.floats(min_value=0.0, max_value=2.0 * np.pi, exclude_max=True),
                min_size=n,
                max_size=n,
            )
        ),
    )


def lifted_specs(space, max_atoms: int = 3) -> st.SearchStrategy[LiftedMapSpec]:
    """Certified-starlike product specs with dual norms rescaled below 1."""

    def build(raw, flat, scales):
        n = min(len(raw), len(scales), len(flat) // (2 * space.dim))
        total = sum(raw[:n])
        atoms = []
        for i in range(n):
            block = flat[2 * space.dim * i : 2 * space.dim * (i + 1)]
            g = np.array(block[0::2]) + 1j * np.array(block[1::2])
            nd = dual_norm(space, tuple(g))
            if nd == 0.0:
                g = np.ones(space.dim, dtype=complex)
                nd = dual_norm(space, tuple(g))
            atoms.append((raw[i] / total, Covector(tuple(g * (scales[i] / nd)))))
        return LiftedMapSpec(tuple(atoms))

    sizes = st.shared(st.integers(min_value=1, max_value=max_atoms), key="nspec")
    return st.builds(
        build,
        sizes.flatmap(
            lambda n: st.lists(
                st.floats(min_value=0.05, max_value=1.0), min_size=n, max_size=n
            )
        ),
        sizes.flatmap(
            lambda n: st.lists(
                st.floats(min_value=-1.0, max_value=1.0),
                min_size=2 * space.dim * n,
                max_size=2 * space.dim * n,
            )
        ),
        sizes.flatmap(
            lambda n: st.lists(
                st.floats(min_value=0.1, max_value=1.0), min_size=n, max_size=n
            )
        ),
    )


def command_flags(parser: argparse.ArgumentParser, words: tuple = ()) -> dict[str, set[str]]:
    """{command line words, such as "verify ball": its long options but
    --help} for every leaf command of the parser."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        options = (flag for action in parser._actions for flag in action.option_strings)
        return {" ".join(words): {f for f in options if f.startswith("--") and f != "--help"}}
    return {
        command: flags
        for name, sub in subparsers[0].choices.items()
        for command, flags in command_flags(sub, (*words, name)).items()
    }
