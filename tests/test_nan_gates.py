"""Library tolerance gates fail on NaN: each is written not (x <= tol).

Each row puts one NaN at a gate's input and asserts that gate's outcome:
its CheckFailure subclass where it raises one, else the failure it
records.  Written x > tol, every gate here let the NaN through; a scan of
the package source refuses any comparison written x > *TOL or x < -*TOL.
"""
import ast
import pathlib
import re

import numpy as np
import pytest

import oracles
from oslab import lattice, liealg, positivity, reconstruction
from oslab.cli import EXIT_CHECK_FAILED, SUITE_CHECKS, main
from oslab.errors import CheckFailure
from oslab.lattice import (
    CovarianceError,
    TestFunction,
    TimeLattice,
    free_field_covariance,
    ou_covariance,
)
from oslab.positivity import HermiticityError
from oslab.reconstruction import (
    OperatorBoundError,
    RepresentabilityError,
    build_physical_space,
    transfer_operator,
)


def _space(build=ou_covariance):
    measure = build(1.0, TimeLattice(32, 0.25))
    return build_physical_space(measure, times=(0.125, 0.375), max_degree=2)


def _one_nan(real, index=(0, 1), pick=lambda out: out):
    """real with one entry of its (picked) array result set to NaN."""

    def fake(*args, **kwargs):
        out = real(*args, **kwargs)
        array = pick(out)
        array[index] = np.nan
        return out

    return fake


def _gram_symmetry(monkeypatch):
    monkeypatch.setattr(reconstruction, "reflected_gram", _one_nan(reconstruction.reflected_gram))
    with pytest.raises(OperatorBoundError, match="reflected Gram asymmetry nan"):
        _space()


def _nan_pairing(monkeypatch):
    monkeypatch.setattr(reconstruction, "_shift_pairing_matrix", _one_nan(
        reconstruction._shift_pairing_matrix, (0, 0), pick=lambda out: out[0]))


def _representability(monkeypatch):
    space = _space()
    _nan_pairing(monkeypatch)
    with pytest.raises(RepresentabilityError, match="norm defect nan"):
        transfer_operator(space, 0.25)


def _transfer_asymmetry(monkeypatch):
    space = _space()
    cls = reconstruction.ReconstructedSpace
    monkeypatch.setattr(cls, "compress", _one_nan(cls.compress))
    with pytest.raises(OperatorBoundError, match="transfer matrix asymmetry nan"):
        transfer_operator(space, 0.25)


def _transfer_finite(monkeypatch):
    space = _space(free_field_covariance)
    _nan_pairing(monkeypatch)
    with pytest.raises(OperatorBoundError, match="transfer matrix has non-finite entries"):
        transfer_operator(space, 0.25, exact=False, contraction_tol=1.0e-3)


def _transfer_norm(monkeypatch):
    space = _space()
    monkeypatch.setattr(np.linalg, "norm", lambda *args, **kwargs: np.nan)
    with pytest.raises(OperatorBoundError, match="transfer operator norm nan"):
        transfer_operator(space, 0.25)


def _gram_hermiticity(monkeypatch):
    lattice = TimeLattice(8, 0.5)
    family = [TestFunction(lattice, np.eye(8)[k]) for k in range(2)]
    with pytest.raises(HermiticityError, match="gram asymmetry nan"):
        positivity.pd_gram_certificate(lambda f: complex(np.nan), family)


def _witness(monkeypatch):
    # a record whose witness cannot reproduce its minimum eigenvalue
    with pytest.raises(ValueError, match="witness quadratic form"):
        positivity.PsdCertificate(kind="pd", gram=np.eye(2), min_eigenvalue=np.nan,
                                  tolerance=1.0e-10, norm=1.0, verdict="indefinite",
                                  witness=np.array([1.0, 0.0]))


def _point_check(monkeypatch, eig):
    monkeypatch.setattr(np.linalg, "eigvals", lambda _: np.array(eig, dtype=complex))
    split, _ = liealg.builtin_cone("sl2R-adH")
    return liealg.check_hyperbolic_point(split.algebra, np.array([1.0, 0.0, 0.0]))


def _eigenvalue_reality(monkeypatch):
    check = _point_check(monkeypatch, [complex(1.0, np.nan), 0.0, -1.0])
    assert not check.hyperbolic
    assert check.reason == "complex eigenvalues (max imaginary part nan)"


def _eigenvalue_cluster(monkeypatch):
    check = _point_check(monkeypatch, [np.nan, 0.0, -1.0])
    assert not check.hyperbolic
    assert check.reason == "non-finite eigenvalue nan"


def _membership_determinant(monkeypatch):
    with pytest.raises(ValueError, match="matrix determinant nan is not 1"):
        oracles.sl2_cone_factorize(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def _covariance_symmetry(monkeypatch):
    real = lattice._symmetric_part
    monkeypatch.setattr(lattice, "_symmetric_part", lambda C: (real(C)[0], np.nan))
    with pytest.raises(CovarianceError, match="covariance asymmetry nan"):
        ou_covariance(1.0, TimeLattice(32, 0.25))


# gate -> a function that puts a NaN at its input and asserts its outcome
GATES = {
    "lattice-covariance-symmetry": _covariance_symmetry,
    "reconstruction-gram-symmetry": _gram_symmetry,
    "reconstruction-representability": _representability,
    "reconstruction-transfer-asymmetry": _transfer_asymmetry,
    "reconstruction-transfer-finite": _transfer_finite,
    "reconstruction-transfer-norm": _transfer_norm,
    "positivity-gram-hermiticity": _gram_hermiticity,
    "positivity-witness": _witness,
    "liealg-eigenvalue-reality": _eigenvalue_reality,
    "liealg-eigenvalue-cluster": _eigenvalue_cluster,
    "liealg-membership-determinant": _membership_determinant,
}


@pytest.mark.parametrize("gate", GATES)
def test_nan_at_a_gate_input_fails_that_gate(monkeypatch, gate):
    GATES[gate](monkeypatch)


TOLERANCE_NAME = re.compile(r"[A-Z][A-Z0-9_]*TOL\Z")


def _greater_than_tolerance(path: pathlib.Path) -> list:
    """'file:line' of each comparison x > y or x < y in the file whose right
    side y names an upper-case *TOL constant: a failure test beyond a bound,
    above or below, that NaN passes."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Compare):
            for op, right in zip(node.ops, node.comparators):
                names = {n.id for n in ast.walk(right) if isinstance(n, ast.Name)}
                if isinstance(op, (ast.Gt, ast.Lt)) and any(map(TOLERANCE_NAME.match, names)):
                    found.append("%s:%d" % (path.name, node.lineno))
    return found


def test_no_library_gate_is_written_greater_than_a_tolerance():
    src = pathlib.Path(lattice.__file__).parent
    assert [hit for path in sorted(src.glob("*.py")) for hit in _greater_than_tolerance(path)] == []


@pytest.mark.parametrize("argv", [
    ("reconstruct",), ("reconstruct", "--instance", "free-field"), ("suite",),
], ids=["reconstruct-ou", "reconstruct-free-field", "suite"])
def test_nan_pairing_matrix_is_a_check_failure(tmp_path, monkeypatch, capsys, argv):
    # one NaN in the shifted pairing matrix fails the transfer (exit 1)
    # instead of reaching an SVD that does not converge (exit 2)
    _nan_pairing(monkeypatch)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out), "--quiet"]) == EXIT_CHECK_FAILED
    if argv[0] == "reconstruct":
        assert capsys.readouterr().err.startswith("check failed: ")
        return
    checks = [line for line in (out / "suite_summary.txt").read_text().splitlines()
              if line.startswith("check ")]
    assert len(checks) == len(SUITE_CHECKS) == 15
    # the three checks that build a transfer fail; the other twelve pass
    failed = [line for line in checks if ": PASS (" not in line]
    assert [line.split(":")[0] for line in failed] == [
        "check reconstruction-spectrum", "check contraction-semigroup", "check npoint-identity"]
    assert all("FAIL (RepresentabilityError: " in line for line in failed)
    assert issubclass(RepresentabilityError, CheckFailure)
