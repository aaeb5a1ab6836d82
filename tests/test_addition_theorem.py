"""The source paper's addition theorem as an oracle for the exact kernel columns.

For an onto phi from (Z/p)^{d_in} to (Z/p)^{d_out} over the free group,
0 -> ker phi -> full^{d_in} -> full^{d_out} -> 0 is exact, and the
addition theorem for compact totally disconnected groups gives
f(ker phi) = (d_in - d_out) log p: 0 for a nonzero scalar stencil, -log 2
for the doubling map.  Matrix kernels are checked where `is_surjective`
proves them onto; a kernel it proves not onto shows that the theorem
needs phi onto.  For psi onto, 0 -> ker psi -> ker(phi psi) ->
ker phi -> 0 is exact too, so f(ker phi psi) = f(ker psi) + f(ker phi).
Every f below comes from full_report, which must label it exact.
"""

from hypothesis import assume, given, settings, strategies as st

from flab import suite
from flab.entropy import EntropyValue
from flab.finv import full_report, is_exact
from flab.kernels import ConvolutionKernel, comparison_kernel, is_surjective, ow_kernel
from flab.presets import make_rng
from flab.processes import KernelProcess
from flab.words import ball_list, mul, parse_word


def random_scalar(rng, p: int, rank: int, radius: int) -> ConvolutionKernel:
    """A stencil of one to three words of B(radius), with nonzero coefficients."""
    words = rng.sample(ball_list(rank, radius), rng.randint(1, 3))
    return ConvolutionKernel(p, rank, {w: [[rng.randrange(1, p)]] for w in words})


def random_matrix(rng, p: int) -> ConvolutionKernel:
    """d_in and d_out in {1, 2}, one to three words of B(1), blocks over Z/p."""
    d_in, d_out = rng.choice([1, 2]), rng.choice([1, 2])
    words = rng.sample(ball_list(2, 1), rng.randint(1, 3))
    blocks = {w: [[rng.randrange(p) for _ in range(d_in)] for _ in range(d_out)] for w in words}
    return ConvolutionKernel(p, 2, blocks, d_in, d_out)


def theorem_value(kernel: ConvolutionKernel) -> EntropyValue:
    return (kernel.d_in - kernel.d_out) * EntropyValue.log_int(kernel.p)


def exact_f(kernel: ConvolutionKernel) -> EntropyValue:
    rep = full_report(KernelProcess(kernel), 1)
    assert rep.f_exact() and rep.certificate in ("EXACT-MARKOV", "EXACT-STABILIZED")
    assert rep.f_star_value == rep.f_value
    return rep.f_value


def compose(phi: ConvolutionKernel, psi: ConvolutionKernel) -> ConvolutionKernel:
    """The stencil of phi after psi: phi(psi x)(g) = sum_{s, t} phi[s] psi[t] x(g s t)."""
    coeffs = {}
    for s, a in phi.coeffs.items():
        for t, b in psi.coeffs.items():
            block = coeffs.setdefault(mul(s, t), [[0] * psi.d_in for _ in range(phi.d_out)])
            for i in range(phi.d_out):
                for j in range(psi.d_in):
                    block[i][j] += sum(a[i][k] * b[k][j] for k in range(psi.d_out))
    return ConvolutionKernel(phi.p, phi.rank, coeffs, psi.d_in, phi.d_out)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
def test_onto_scalar_stencils_in_ball_two_read_zero(seed, p):
    kernel = random_scalar(make_rng(seed), p, 2, 2)
    assert is_surjective(kernel).surjective
    assert exact_f(kernel).is_zero()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.sampled_from([(1, 3), (3, 1)]))
def test_onto_scalar_stencils_at_ranks_one_and_three_read_zero(seed, p, shape):
    # rank 1 with support in B(3), rank 3 with support in B(1)
    rank, radius = shape
    kernel = random_scalar(make_rng(seed), p, rank, radius)
    assert is_surjective(kernel).surjective
    assert exact_f(kernel).is_zero()


def test_ow_column_reads_minus_log_two():
    kernel = ow_kernel()
    column = suite.run_ornstein_weiss(suite.RunConfig(n_max=1))["reports"]["kernel_column"]
    expected = (kernel.d_in - kernel.d_out) * EntropyValue.log_int(kernel.p)
    assert expected == -1 * EntropyValue.log_int(2)
    assert EntropyValue.from_json(column["f"]["value"]) == expected
    assert is_exact(column["f"]["certificate"])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
def test_onto_matrix_kernels_read_the_theorem_value(seed, p):
    kernel = random_matrix(make_rng(seed), p)
    assume(not kernel.is_zero() and is_surjective(kernel).surjective)
    assert exact_f(kernel) == theorem_value(kernel)


def test_matrix_kernel_values():
    plateau = ConvolutionKernel(2, 2, {parse_word("B", 2): [[1, 0], [0, 0]], parse_word("a", 2): [[0, 1], [1, 0]]}, 2, 2)
    pins = [(plateau, 0), (ow_kernel(), -1), (comparison_kernel(3, 2), -1)]
    for kernel, coefficient in pins:
        assert is_surjective(kernel).surjective
        assert exact_f(kernel) == theorem_value(kernel) == coefficient * EntropyValue.log_int(kernel.p)


def test_a_kernel_that_is_not_onto_misses_the_theorem_value():
    # the target map loses row rank on B(3), so phi is not onto, and f
    # reads 0, not (1 - 2) log 2
    blocks = {"AB": [[1], [1]], "Ab": [[1], [1]], "AA": [[1], [0]]}
    kernel = ConvolutionKernel(2, 2, {parse_word(t, 2): b for t, b in blocks.items()}, 1, 2)
    assert not is_surjective(kernel).surjective
    assert exact_f(kernel).is_zero() and theorem_value(kernel) == -1 * EntropyValue.log_int(2)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_composition_adds_f(seed):
    rng = make_rng(seed)
    p = rng.choice([2, 3])
    phi = rng.choice(
        [comparison_kernel(p, 2), random_scalar(rng, p, 2, 1)] + ([ow_kernel()] if p == 2 else [])
    )
    psi = random_scalar(rng, p, 2, 1)
    product = compose(phi, psi)
    # the stored stencils are coeffs[s] = h(s^-1), so the order of s t is
    # checked against composing the operators on a random configuration
    x = {w: rng.randrange(p) for w in rng.sample(ball_list(2, 3), 30)}
    for g in ball_list(2, 1):
        y = {mul(g, s): psi.evaluate(x, mul(g, s)) for s in phi.coeffs}
        assert product.evaluate(x, g) == phi.evaluate(y, g)
    assert exact_f(product) == exact_f(phi) + exact_f(psi)
