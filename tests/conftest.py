import pytest

from cicodes import (
    cb_certificate,
    ci_setup,
    extended_rs,
    field_new,
    hermitian_ci,
    parse,
    reed_muller_ci,
)
from cicodes.linalg import rref


def certify(setup, a):
    """A `verify_cb_all` certificate, which serves degree a as every other."""
    return cb_certificate(setup)


def nullspace(rows, field, ncols):
    """Basis of the right kernel {v : M v = 0}, one vector per free column:
    the tests' reference kernel, read off the RREF."""
    red, pivots = rref(rows, field)
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = [0] * ncols
        v[fc] = 1
        for row, pc in zip(red, pivots):
            v[pc] = field.neg(row[fc])  # pivot row: x_pc + sum over free cols = 0
        basis.append(v)
    return basis


@pytest.fixture(scope="session")
def f2():
    return field_new(2, 1)


@pytest.fixture(scope="session")
def f3():
    return field_new(3, 1)


@pytest.fixture(scope="session")
def f4():
    return field_new(2, 2)


@pytest.fixture(scope="session")
def f5():
    return field_new(5, 1)


@pytest.fixture(scope="session")
def two_conic(f5):
    """4-point (2,2) complete intersection in P^2 over F_5, s = 1."""
    polys = [parse("x1^2 - x0^2", 2, f5), parse("x2^2 - x0^2", 2, f5)]
    return ci_setup(polys, 2, f5)


@pytest.fixture(scope="session")
def rm3(f3):
    """Reed-Muller CI q=3, m=2: all 9 affine points, s = 3."""
    polys, spec = reed_muller_ci(3, 2)
    return ci_setup(polys, 2, f3)


@pytest.fixture(scope="session")
def rm2_m3(f2):
    """Reed-Muller CI q=2, m=3: all 8 affine points, s = 2."""
    polys, spec = reed_muller_ci(2, 3)
    return ci_setup(polys, 3, f2)


@pytest.fixture(scope="session")
def rs5(f5):
    """Extended Reed-Solomon setup q=5, m=1, s = 3."""
    polys, spec = extended_rs(5, 1)
    return ci_setup(polys, 1, f5)


@pytest.fixture(scope="session")
def rs7_m2():
    polys, spec = extended_rs(7, 2)
    return ci_setup(polys, 2, spec.field)


@pytest.fixture(scope="session")
def herm2():
    """Hermitian setup q=2 over F_4: 6 points, s = 2."""
    polys, spec = hermitian_ci(2)
    return ci_setup(polys, 2, spec.field)


@pytest.fixture(scope="session")
def corpus(two_conic, rm3, rm2_m3, rs5, rs7_m2, herm2):
    """The validated CI corpus: spans m = 1, 2, 3."""
    return {
        "two_conic": two_conic,
        "rm_q3_m2": rm3,
        "rm_q2_m3": rm2_m3,
        "rs_q5_m1": rs5,
        "rs_q7_m2": rs7_m2,
        "hermitian_q2": herm2,
    }
