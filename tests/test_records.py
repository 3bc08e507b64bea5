"""The public records are immutable NamedTuples: the three that validate do so
on every way of building one, no field can be assigned, and each repr reads
as it did when they were frozen dataclasses."""

from fractions import Fraction

import pytest

from invdeg.exact import SkewMatrix
from invdeg.mldegree import DifferenceReport, MLPolynomial, finite_difference_check, ml_polynomial
from invdeg.multidegree import (
    IdentityCoefficient,
    MultidegreeIdentityReport,
    MultidegreeTable,
    multidegree_table,
)
from invdeg.psi import PsiTable, psi_table
from invdeg.poly import SparsePoly, SymbolicMatrix, VarId, generic_sym_matrix, xvar
from invdeg.symbolic import RationalSymMatrix, VanishingReport, verify_graph_vanishing


def _x11():
    return SparsePoly.variable(xvar(1, 1))


# (a valid record, the field to break, a bad value for it)
VALIDATING = {
    "SkewMatrix": (SkewMatrix(((0, 1), (-1, 0))), "rows", ((0, 1), (1, 0))),
    "SkewMatrix-diagonal": (SkewMatrix(((0, 1), (-1, 0))), "rows", ((1, 1), (-1, 0))),
    "SkewMatrix-square": (SkewMatrix(((0, 1), (-1, 0))), "rows", ((0, 1),)),
    "SymbolicMatrix": (SymbolicMatrix(1, ((_x11(),),)), "n", 2),
    "RationalSymMatrix": (
        RationalSymMatrix.from_rows([[1, 2], [2, 0]]), "rows", ((Fraction(1), Fraction(2)), (Fraction(3), Fraction(0)))
    ),
    "RationalSymMatrix-size": (RationalSymMatrix.from_rows([[1]]), "n", 2),
}


@pytest.mark.parametrize("case", VALIDATING)
def test_validating_records_reject_bad_fields_on_every_path(case):
    record, field, bad = VALIDATING[case]
    cls = type(record)
    fields = record._asdict()
    assert cls(**fields) == record and cls._make(record) == record and record._replace() == record
    fields[field] = bad
    with pytest.raises(ValueError):
        cls(**fields)
    with pytest.raises(ValueError):
        cls(*fields.values())
    with pytest.raises(ValueError):
        cls._make(fields.values())
    with pytest.raises(ValueError):
        record._replace(**{field: bad})


# (a valid record, the field to break, a value for it with one inexact or non-polynomial entry)
BAD_ENTRIES = {
    "RationalSymMatrix-float": (RationalSymMatrix.from_rows([[1, 2], [2, 0]]), "rows", ((1, 0.5), (0.5, 1))),
    "SymbolicMatrix-int": (SymbolicMatrix(1, ((_x11(),),)), "entries", ((1,),)),
    "SymbolicMatrix-float": (SymbolicMatrix(1, ((_x11(),),)), "entries", ((1.0,),)),
}


@pytest.mark.parametrize("case", BAD_ENTRIES)
def test_records_reject_bad_entries_on_every_path(case):
    record, field, bad = BAD_ENTRIES[case]
    cls = type(record)
    fields = {**record._asdict(), field: bad}
    with pytest.raises(TypeError):
        cls(**fields)
    with pytest.raises(TypeError):
        cls._make(fields.values())
    with pytest.raises(TypeError):
        record._replace(**{field: bad})


def _records():
    table = multidegree_table(2)
    return [
        SkewMatrix(((0, 1), (-1, 0))),
        psi_table(3),
        table,
        table.identity,
        table.identity.coefficients[0],
        ml_polynomial(2),
        finite_difference_check(2, 4),
        generic_sym_matrix(2, "X"),
        verify_graph_vanishing(2, mode="numeric", trials=1),
        RationalSymMatrix.from_rows([[1, 2], [2, 0]]),
        xvar(1, 2),
    ]


def test_every_public_record_is_immutable():
    kinds = {type(r) for r in _records()}
    assert kinds == {
        SkewMatrix, PsiTable, MultidegreeTable, MultidegreeIdentityReport,
        IdentityCoefficient, MLPolynomial, DifferenceReport, SymbolicMatrix,
        VanishingReport, RationalSymMatrix, VarId,
    }
    for record in _records():
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):  # no instance __dict__ either
            record.extra = 1


def test_record_reprs_match_the_dataclass_reprs():
    # Strings printed by the frozen-dataclass versions of these records.
    assert repr(SkewMatrix([[0, 1], [-1, 0]])) == "SkewMatrix(rows=((0, 1), (-1, 0)))"
    assert repr(psi_table(3)) == "PsiTable(n=3, singles=(1, 2, 4), pairs=((0, 1, 3), (0, 0, 3), (0, 0, 0)))"
    assert repr(multidegree_table(2)) == (
        "MultidegreeTable(n=2, m=3, beta=(1, 2, 2, 1), gamma_degs=(1, 1, 1), sigma_coeffs=(2, 2), "
        "identity=MultidegreeIdentityReport(n=2, m=3, coefficients=(IdentityCoefficient(d=0, lhs=1, rhs=1), "
        "IdentityCoefficient(d=1, lhs=2, rhs=2), IdentityCoefficient(d=2, lhs=2, rhs=2), "
        "IdentityCoefficient(d=3, lhs=1, rhs=1))))"
    )
    assert repr(ml_polynomial(2)) == (
        "MLPolynomial(d=2, coeffs=(Fraction(-1, 1), Fraction(1, 1)), sample_start=2, validated_at=(4, 5, 6))"
    )
    assert repr(finite_difference_check(2, 4)) == "DifferenceReport(d=2, window=4, start_n=2, differences=(0, 0))"
    assert repr(generic_sym_matrix(2, "X")) == "SymbolicMatrix(n=2, entries=((X[1,1], X[1,2]), (X[1,2], X[2,2])))"
    assert repr(verify_graph_vanishing(2, mode="numeric", trials=1)) == (
        "VanishingReport(n=2, mode='numeric', generators=3, trials=1)"
    )
    assert repr(RationalSymMatrix.from_rows([[1, Fraction(1, 2)], [Fraction(1, 2), 0]])) == (
        "RationalSymMatrix(n=2, rows=((Fraction(1, 1), Fraction(1, 2)), (Fraction(1, 2), Fraction(0, 1))))"
    )
