import random
from itertools import product
from pathlib import Path

import pytest

from toricpush import (IntMatrix, build_endo, hirzebruch, multiplication_endo,
                       product_fan, projective_space, smith_normal_form)
from toricpush.lattice import inverse_unimodular

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fans"


def corpus_fans():
    p1 = projective_space(1)
    return {
        "P1": p1,
        "P2": projective_space(2),
        "P3": projective_space(3),
        "P1xP1": product_fan(p1, p1, name="P1xP1"),
        "F1": hirzebruch(1),
        "F2": hirzebruch(2),
        "F3": hirzebruch(3),
    }


def swap_endo(p1xp1):
    return build_endo(p1xp1, IntMatrix.from_rows([[0, 1], [2, 0]]))


def corpus_pairs():
    """(label, fan, endo) for every corpus fan with mul:2 and mul:3, plus swap."""
    fans = corpus_fans()
    pairs = []
    for name, fan in fans.items():
        for q in (2, 3):
            pairs.append(("%s/mul:%d" % (name, q), fan,
                          multiplication_endo(fan, q)))
    pairs.append(("P1xP1/swap", fans["P1xP1"], swap_endo(fans["P1xP1"])))
    return pairs


def box_cosets(F):
    """Reference for Z^n / F(Z^n): U^{-1} w for w in the SNF box, one matrix
    product per coset, in itertools.product order."""
    snf = smith_normal_form(F)
    uinv = inverse_unimodular(snf.U)
    return [uinv.mul_vector(w)
            for w in product(*[range(d) for d in snf.invariant_factors()])]


def sample_divisors(fan, bound=2, limit=200, seed=0):
    """Divisors with ray coefficients in [-bound, bound]; exhaustive when the
    box is small, otherwise a deterministic sample of `limit`."""
    full = list(product(range(-bound, bound + 1), repeat=fan.nrays))
    if len(full) <= limit:
        return full
    rng = random.Random(seed)
    return rng.sample(full, limit)


@pytest.fixture(scope="session")
def fans():
    return corpus_fans()


@pytest.fixture(scope="session")
def pairs():
    return corpus_pairs()
