from __future__ import annotations

import math

import numpy as np
import pytest

from qcalc.clifford import (
    ComplexLinearMap,
    LinearCliffordMap,
    Multivector,
    _mask_bits,
    _tables,
    blade_order,
    complete_from_hyperplane,
    complex_complete,
    complex_to_even,
    dirac_constraint_matrix,
    geometric_product,
    is_left_monogenic,
    is_right_monogenic,
    map_from_dict,
    monogenic_space_dimension,
    multivector_from_dict,
    tangential_derivative_on_graph,
)
from qcalc.errors import AlgebraError, BuildError, FormatError
from qcalc.fields import ScalarField
from qcalc.geometry import build_lipschitz_graph


def e(dim, i):
    return Multivector.basis_vector(dim, i)


def random_multivector(dim, rng):
    return Multivector(dim, rng.normal(size=1 << dim))


# ---------------------------------------------------------------------------
# algebra substrate


def test_defining_relations():
    for dim in (2, 3, 4):
        for i in range(1, dim + 1):
            sq = e(dim, i) * e(dim, i)
            assert sq.coefficient(()) == -1.0
            assert sq.norm() == 1.0
        for i in range(1, dim + 1):
            for j in range(i + 1, dim + 1):
                anti = e(dim, i) * e(dim, j) + e(dim, j) * e(dim, i)
                assert anti.norm() <= 1e-15


def test_product_examples():
    assert (e(2, 1) * e(2, 2)).coefficient((1, 2)) == 1.0
    assert (e(2, 2) * e(2, 1)).coefficient((1, 2)) == -1.0
    one = Multivector.scalar(2, 1.0)
    prod = (one + e(2, 1)) * (one - e(2, 1))
    assert prod.coefficient(()) == 2.0
    assert prod.norm() == 2.0


def _blade_sign(a: int, b: int) -> int:
    """Sign of (blade a) * (blade b), verbatim the per-pair loop that filled
    the sign table before its closed form: the oracle for that form."""
    sign = 1
    res = a
    for j in _mask_bits(b):
        if (res >> (j + 1)).bit_count() % 2:
            sign = -sign
        if res >> j & 1:
            sign = -sign
            res &= ~(1 << j)
        else:
            res |= 1 << j
    return sign


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_sign_table_equals_the_per_pair_loop(dim):
    size = 1 << dim
    oracle = np.array([[_blade_sign(a, b) for b in range(size)] for a in range(size)],
                      dtype=np.int8)
    sign = _tables(dim)[2]
    assert sign.dtype == np.int8
    assert sign.tobytes() == oracle.tobytes()


def test_graded_lex_blade_order():
    assert blade_order(3) == ((), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3))


def test_associativity_and_bilinearity_seeded():
    rng = np.random.default_rng(123)
    dim = 3
    for _ in range(1000):
        a, b, c = (random_multivector(dim, rng) for _ in range(3))
        left = (a * b) * c
        right = a * (b * c)
        scale = max(left.norm(), 1.0)
        assert (left - right).norm() <= 1e-12 * scale
    for _ in range(100):
        a, b, c = (random_multivector(dim, rng) for _ in range(3))
        t = float(rng.normal())
        lin = (a + t * b) * c - (a * c + t * (b * c))
        assert lin.norm() <= 1e-12 * max((a * c).norm(), 1.0)


def test_dimension_guard():
    with pytest.raises(AlgebraError):
        Multivector.zero(7)
    with pytest.raises(AlgebraError):
        geometric_product(Multivector.zero(2), Multivector.zero(3))
    with pytest.raises(AlgebraError):
        Multivector(2, np.zeros(5))
    with pytest.raises(AlgebraError):
        Multivector.blade(2, (2, 1))


def test_multivector_serialization_round_trip():
    rng = np.random.default_rng(9)
    mv = random_multivector(3, rng)
    again = multivector_from_dict(mv.as_dict())
    assert np.array_equal(mv.coeffs, again.coeffs)


@pytest.mark.parametrize("doc, field", [
    ([1, 2], "<root>"),
    ({"coeffs": [1.0, 0.0]}, "dim"),
    ({"dim": True, "coeffs": [1.0, 0.0]}, "dim"),
    ({"dim": 2.7, "coeffs": [1.0, 0.0, 0.0, 0.0]}, "dim"),
    ({"dim": 7, "coeffs": [0.0] * 128}, "dim"),
    ({"dim": 1}, "coeffs"),
    ({"dim": 1, "coeffs": [float("nan"), 0.0]}, "coeffs"),
    ({"dim": 1, "coeffs": [1.0, True]}, "coeffs"),
    ({"dim": 1, "coeffs": [1.0, "0"]}, "coeffs"),
    ({"dim": 2, "coeffs": [1.0, 0.0]}, "coeffs"),
    ({"dim": 1, "coeffs": [[1.0], [0.0]]}, "coeffs"),
], ids=["list", "no-dim", "bool-dim", "float-dim", "huge-dim", "no-coeffs", "nan-coeff",
        "bool-coeff", "string-coeff", "short-coeffs", "nested-coeffs"])
def test_multivector_reader_rejects_bad_documents(doc, field):
    # dim true used to read as 1 and dim 2.7 as 2; NaN and true coefficients loaded
    with pytest.raises(FormatError) as err:
        multivector_from_dict(doc, source="mv.json")
    assert err.value.field == field
    assert str(err.value).startswith("mv.json: invalid field")


# ---------------------------------------------------------------------------
# monogenic checks


def test_monogenic_example_pair():
    c1 = Multivector.scalar(2, 1.0)
    c2 = e(2, 2) * e(2, 1)
    rep = is_left_monogenic(LinearCliffordMap(2, (c1, c2)))
    assert rep.passed and rep.defect == 0.0


def test_monogenic_defect_unit():
    L = LinearCliffordMap(2, (Multivector.scalar(2, 1.0), Multivector.zero(2)))
    rep = is_left_monogenic(L)
    assert not rep.passed
    assert math.isclose(rep.defect, 1.0, abs_tol=1e-15)


@pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan, -1e-12])
@pytest.mark.parametrize("check", [is_left_monogenic, is_right_monogenic])
def test_monogenic_checks_refuse_a_tolerance_that_is_not_finite_and_nonnegative(check, tol):
    # tol=inf would pass the unit-defect map; a NaN or negative tol fails every map
    L = LinearCliffordMap(2, (Multivector.scalar(2, 1.0), Multivector.zero(2)))
    with pytest.raises(BuildError, match="tol must be finite and nonnegative"):
        check(L, tol)


def test_random_maps_projected_onto_kernel_are_monogenic():
    # projection oracle: project random column stacks onto the null space of
    # the Dirac constraint matrix, independent of the completion formula
    from scipy.linalg import null_space

    rng = np.random.default_rng(31)
    for n in (2, 3):
        K = dirac_constraint_matrix(n, "left")
        basis = null_space(K)
        assert basis.shape[1] == (n - 1) * 2 ** n
        for _ in range(20):
            vec = rng.normal(size=n * 2 ** n)
            proj = basis @ (basis.T @ vec)
            cols = tuple(
                Multivector(n, proj[i * 2 ** n : (i + 1) * 2 ** n]) for i in range(n)
            )
            assert is_left_monogenic(LinearCliffordMap(n, cols)).defect <= 1e-12


# ---------------------------------------------------------------------------
# hyperplane completion


def test_completion_scalar_column():
    comp = complete_from_hyperplane([Multivector.scalar(2, 1.0)], "left")
    assert comp.columns[1].coefficient((1, 2)) == -1.0  # e2 e1 stored as -e12
    assert is_left_monogenic(comp).defect <= 1e-12


def test_completion_e1_column():
    comp = complete_from_hyperplane([e(2, 1)], "left")
    assert comp.columns[1].coefficient((2,)) == -1.0  # c2 = -e2
    assert is_left_monogenic(comp).defect <= 1e-12


def test_completion_uniqueness_is_exact():
    rng = np.random.default_rng(4)
    partial = [random_multivector(3, rng), random_multivector(3, rng)]
    a = complete_from_hyperplane(partial, "left")
    b = complete_from_hyperplane(partial, "left")
    assert np.array_equal(a.columns[2].coeffs, b.columns[2].coeffs)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("side", ["left", "right"])
def test_completion_round_trip_100_trials(n, side):
    from scipy.linalg import null_space

    K = dirac_constraint_matrix(n, side)
    basis = null_space(K)
    rng = np.random.default_rng(1000 + n)
    checker = is_left_monogenic if side == "left" else is_right_monogenic
    for _ in range(100):
        vec = rng.normal(size=n * 2 ** n)
        proj = basis @ (basis.T @ vec)
        cols = tuple(Multivector(n, proj[i * 2 ** n : (i + 1) * 2 ** n]) for i in range(n))
        L = LinearCliffordMap(n, cols)
        assert checker(L).defect <= 1e-12
        completed = complete_from_hyperplane(cols[: n - 1], side)
        diff = np.max(np.abs(completed.columns[n - 1].coeffs - cols[n - 1].coeffs))
        assert diff <= 1e-12


def test_completion_in_rotated_frame():
    theta = 0.6
    frame = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    comp = complete_from_hyperplane([Multivector.scalar(2, 1.0)], "left", frame=frame)
    assert is_left_monogenic(comp).defect <= 1e-12


def test_completion_input_validation():
    with pytest.raises(AlgebraError):
        complete_from_hyperplane([], "left")
    with pytest.raises(AlgebraError):
        complete_from_hyperplane([Multivector.scalar(2, 1.0)], "sideways")
    with pytest.raises(AlgebraError):
        complete_from_hyperplane([Multivector.scalar(3, 1.0)], "left")
    with pytest.raises(AlgebraError):
        complete_from_hyperplane(
            [Multivector.scalar(2, 1.0)], "left", frame=np.array([[1, 1], [0, 1]])
        )


# ---------------------------------------------------------------------------
# dimension of the monogenic space


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_monogenic_space_dimension_closed_form(n):
    assert monogenic_space_dimension(n) == (n - 1) * 2 ** n
    assert monogenic_space_dimension(n, side="right") == (n - 1) * 2 ** n


def test_monogenic_space_dimension_exact_rank_oracle():
    # exact integer rank over the rationals, independent of numpy's SVD
    import sympy

    for n in (2, 3, 4):
        K = dirac_constraint_matrix(n, "left")
        exact_rank = sympy.Matrix(K.astype(int)).rank()
        assert monogenic_space_dimension(n) == n * 2 ** n - exact_rank


def _sign_table_constraint_matrix(dim, side):
    """The constraint matrix as built from the sign table before it was built
    from ``geometric_product``: the oracle for that construction."""
    order, inv, sign = _tables(dim)
    size = 1 << dim
    blocks = []
    for i in range(dim):
        ei = 1 << i
        block = np.zeros((size, size))
        for g in range(size):
            mask = order[g]
            target = ei ^ mask
            s = sign[ei, mask] if side == "left" else sign[mask, ei]
            block[inv[target], g] = s
        blocks.append(block)
    return np.hstack(blocks)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_constraint_matrix_equals_the_sign_table_construction(n, side):
    K, oracle = dirac_constraint_matrix(n, side), _sign_table_constraint_matrix(n, side)
    assert (K.dtype, K.shape) == (oracle.dtype, oracle.shape)
    assert K.tobytes() == oracle.tobytes()  # bit for bit, signed zeros included


def test_monogenic_space_dimension_range():
    with pytest.raises(AlgebraError):
        monogenic_space_dimension(1)
    with pytest.raises(AlgebraError):
        monogenic_space_dimension(7)


# ---------------------------------------------------------------------------
# complex specialization


def test_complex_complete_identity():
    m = complex_complete(1.0)
    assert m.on_i == 1j


def test_complex_complete_general():
    m = complex_complete(2.0 + 3.0j)
    assert m.on_i == -3.0 + 2.0j
    assert m.apply(1.0 - 1.0j) == (2.0 + 3.0j) * (1.0 - 1.0j)
    mat = m.as_real_matrix()
    assert np.allclose(mat, [[2.0, -3.0], [3.0, 2.0]])


def test_complex_complete_agrees_with_clifford_path():
    rng = np.random.default_rng(7)
    for _ in range(20):
        c = complex(rng.normal(), rng.normal())
        cm = complex_complete(c)
        comp = complete_from_hyperplane([complex_to_even(c)], "left")
        expect = cm.clifford_columns()[1]
        assert np.max(np.abs(comp.columns[1].coeffs - expect.coeffs)) <= 1e-12


def test_complex_embedding_is_an_algebra_map():
    rng = np.random.default_rng(8)
    for _ in range(20):
        z = complex(rng.normal(), rng.normal())
        w = complex(rng.normal(), rng.normal())
        lhs = complex_to_even(z * w)
        rhs = complex_to_even(z) * complex_to_even(w)
        assert (lhs - rhs).norm() <= 1e-12


# ---------------------------------------------------------------------------
# tangential derivative on Lipschitz graphs


def graph_fields(sample, fn, an):
    zs = [complex(x, y) for x, y in sample.points_array.tolist()]
    f = ScalarField(sample, np.array([fn(z) for z in zs]))
    a = ScalarField(sample, np.array([an(z) for z in zs]))
    return f, a


def test_identity_function_exact_on_line_and_tent():
    for sample in (
        build_lipschitz_graph([0.5], 0.125, (0.0, 1.0)),
        build_lipschitz_graph([0.5, -0.5], 0.125, (0.0, 2.0)),
    ):
        f, a = graph_fields(sample, lambda z: z, lambda z: 1.0 + 0.0j)
        rep = tangential_derivative_on_graph(f, a)
        assert rep.max_residual <= 1e-12
        assert rep.passed


def test_square_function_is_exact_on_single_slope_graph():
    # the composed parameter function is quadratic, so centered differences
    # reproduce its derivative exactly; residuals sit at machine zero rather
    # than decaying like h^2
    for k in range(4, 9):
        sample = build_lipschitz_graph([0.5], 2.0 ** -k, (0.0, 1.0))
        f, a = graph_fields(sample, lambda z: z * z, lambda z: 2 * z)
        rep = tangential_derivative_on_graph(f, a)
        assert rep.max_residual <= 1e-12
        assert rep.passed


def test_cubic_function_second_order_decay():
    residuals = []
    for k in range(4, 9):
        sample = build_lipschitz_graph([0.5], 2.0 ** -k, (0.0, 1.0))
        f, a = graph_fields(sample, lambda z: z ** 3, lambda z: 3 * z * z)
        rep = tangential_derivative_on_graph(f, a, c_quad=4.0)
        residuals.append(rep.max_residual)
        assert rep.passed
    ratios = [residuals[i] / residuals[i + 1] for i in range(len(residuals) - 1)]
    assert all(3.5 <= r <= 4.5 for r in ratios), ratios


@pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan, -1e-12])
def test_graph_derivative_refuses_a_tolerance_that_is_not_finite_and_nonnegative(tol):
    # tol=inf would make the threshold inf, so every residual would pass
    sample = build_lipschitz_graph([0.5], 0.125, (0.0, 1.0))
    f, a = graph_fields(sample, lambda z: z * z, lambda z: 3 * z)
    with pytest.raises(BuildError, match="tol must be finite and nonnegative"):
        tangential_derivative_on_graph(f, a, tol=tol)


def test_complex_linearity_forced_by_representation():
    sample = build_lipschitz_graph([0.5], 0.25, (0.0, 1.0))
    _, a = graph_fields(sample, lambda z: z * z, lambda z: 2 * z)
    for val in a.values:
        act = ComplexLinearMap(complex(val))
        for direction in (1.0 + 0.0j, 0.3 - 0.8j):
            assert act.apply(1j * direction) == 1j * act.apply(direction)


def test_non_graph_sample_rejected(gasket2):
    zs = np.zeros(gasket2.vertex_count, dtype=complex)
    f = ScalarField(gasket2, zs)
    a = ScalarField(gasket2, zs)
    with pytest.raises(BuildError):
        tangential_derivative_on_graph(f, a)


def test_map_serialization_round_trip():
    rng = np.random.default_rng(3)
    cols = tuple(random_multivector(2, rng) for _ in range(2))
    L = LinearCliffordMap(2, cols)
    again = map_from_dict(L.as_dict())
    for a, b in zip(L.columns, again.columns):
        assert np.array_equal(a.coeffs, b.coeffs)


def test_apply_is_linear_combination_of_columns():
    rng = np.random.default_rng(6)
    cols = tuple(random_multivector(3, rng) for _ in range(3))
    L = LinearCliffordMap(3, cols)
    x = (0.5, -1.0, 2.0)
    manual = 0.5 * cols[0] + (-1.0) * cols[1] + 2.0 * cols[2]
    assert (L.apply(x) - manual).norm() <= 1e-12
