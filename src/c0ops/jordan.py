"""Jordan models and the canonical interleaved subspace.

Jordan structure is read off from the ranks of b_a(A)^k, the powers of the
Blaschke factor at each zero a of the reference inner function, so the
eigenvalues are anchored to its zero list instead of computed spectra.
One rank rule (``_rank``) reads every rank from a vector of singular
values, and there is one read of them. On the Jordan ambient, where every
copy is S(theta), b_a(T_N)^k is a partial isometry whose kernel is known
in closed form (``ModelSpace.kernel_frames``). For an invariant M the
singular values of b_a(T|M)^k are the sines of the principal angles
between M and that kernel, read one distinct copy group of M at a time.
The kernels are nested in k, so a group of c copies with frame Q takes
one triangular factor and reads each k with ck <= dim Q from a leading
block of it; a larger k is read from Q projected off the kernel. The
drops in rank from one k to the next never increase, so a zero reads
only the k whose rank the ranks known so far leave open
(``_next_power``): a plateau ends the read, and a linear run is
confirmed by one read at its far end.
An ambient conjugated by C is read the same way after M is mapped back
by I (x) C^{-1}, which makes T|M a similar restriction of the Jordan
ambient's T_N.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from . import inner
from .errors import HypothesisViolated, IllConditioned, NotInvariant
from .inner import InnerFunction, ONE, quotient
from .subspaces import (
    AmbientSpace,
    SubspaceFrame,
    copywise,
    invariant_subspace_of_block,
    is_invariant,
    orthonormalize,
)

RANK_TOL = 1e-8  # singular values above RANK_TOL * max(1, s_max) count toward a rank
RANK_GAP_MIN = 1e2


@dataclass(frozen=True)
class JordanModel:
    """Divisibility-nonincreasing list of inner functions (phi_0, phi_1, ...)."""

    parts: tuple[InnerFunction, ...] = ()

    def __post_init__(self):
        parts = tuple(self.parts)
        while parts and parts[-1].is_one():
            parts = parts[:-1]
        for a, b in zip(parts, parts[1:]):
            if not inner.divides(b, a):
                raise ValueError("parts must form a divisibility chain")
        object.__setattr__(self, "parts", parts)

    def __len__(self):
        return len(self.parts)

    def part(self, n: int) -> InnerFunction:
        """phi_n, with the constant 1 beyond the recorded length."""
        return self.parts[n] if n < len(self.parts) else ONE

    @property
    def total_degree(self) -> int:
        return sum(p.degree for p in self.parts)

    def complement(self, theta: InnerFunction, copies: int) -> "JordanModel":
        """(theta/phi_{N-1-n})_{n<N}: the model left over in N = copies copies of S(theta).

        Klein's rule: at a zero of theta of multiplicity m, C^{Nd} is a free
        C[z]/(z^m)-module of rank N, and a submodule of type lambda has as
        cotype the complement of lambda in the N x m rectangle (T. Klein,
        J. London Math. Soc. 43, 1968). So when T|M has model self, the
        compression of T_N to M^perp has this one.
        """
        if len(self) > copies:
            raise ValueError(f"a model of length {len(self)} does not fit {copies} copies")
        return JordanModel(tuple(quotient(theta, self.part(copies - 1 - n)) for n in range(copies)))

    def to_dict(self) -> dict:
        return {"parts": [p.to_dict() for p in self.parts]}

    @classmethod
    def from_dict(cls, data: dict) -> "JordanModel":
        return cls(tuple(InnerFunction.from_dict(p) for p in data["parts"]))


def _rank(s: np.ndarray) -> int:
    """Rank read off singular values s, largest first, under the gap rule.

    Values above RANK_TOL * max(1, s_max) count; the last counted and the
    first dropped must be RANK_GAP_MIN apart, or the rank is refused.
    """
    if s.size == 0 or s[0] == 0.0:
        return 0
    thr = RANK_TOL * max(1.0, float(s[0]))
    r = int(np.sum(s > thr))
    if 0 < r < s.size and s[r] > 0.0:
        if s[r - 1] / s[r] < RANK_GAP_MIN:
            raise IllConditioned(
                f"singular values {s[r-1]:.3e} / {s[r]:.3e} bracket the rank "
                "threshold without a clear gap"
            )
    return r


def chain_lengths(ranks: list[int]) -> list[int]:
    """Jordan chain lengths, largest first, from the ranks of N^0, ..., N^m.

    The number of chains of length >= k is ranks[k-1] - ranks[k], so the
    drops never increase; ranks whose drops do increase belong to no
    nilpotent and are refused.
    """
    counts = [r0 - r1 for r0, r1 in zip(ranks, ranks[1:])]
    if any(b > a for a, b in zip(counts, counts[1:])):
        raise IllConditioned(f"ranks {list(ranks)} fit no nilpotent: their drops increase")
    longest = counts[0] if counts else 0
    return [sum(1 for c in counts if c > n) for n in range(longest)]


def _model(theta_ref: InnerFunction, ranks: list[list[int]]) -> JordanModel:
    """The model whose chains at the i-th zero of theta_ref have ranks[i] (of b_a^0, b_a^1, ...).

    Part n holds the n-th chain of every zero that has one, and the chains
    must fill the dimension ranks[i][0].
    """
    per_zero = []
    for (a, _), r in zip(theta_ref.zeros, ranks):
        try:
            per_zero.append([(a, s) for s in chain_lengths(r)])
        except IllConditioned as exc:
            raise IllConditioned(f"chains at a = {a:.6g}: {exc}") from exc
    model = JordanModel(tuple(InnerFunction(tuple(filter(None, row))) for row in zip_longest(*per_zero)))
    n = ranks[0][0]
    if model.total_degree != n:
        raise IllConditioned(f"Jordan chains of total length {model.total_degree} do not fill dim A = {n}")
    return model


def _kernel_factor(q: np.ndarray, copies: int, kernels: np.ndarray) -> np.ndarray:
    """R of (I - QQ^H)(I_c (x) F[:, :n // c]) for each zero's kernel frame F, columns ordered by power.

    Column j of F on every copy comes before column j + 1, so the leading
    ck columns are (I - QQ^H) K for K = I_c (x) F[:, :k], for every k with
    ck <= n = dim Q.
    """
    count, d, _ = kernels.shape
    n = q.shape[1]
    kernels = kernels[:, :, : n // copies]
    coords = q.reshape(copies, d, n).conj().swapaxes(1, 2) @ kernels[:, None]  # Q_c^H F, (count, copies, n, k)
    inside = q @ coords.transpose(0, 2, 3, 1).reshape(count, n, -1)  # QQ^H (I (x) F), columns by power
    blocks = inside.reshape(count, copies, d, -1, copies)
    blocks[:, range(copies), :, :, range(copies)] -= kernels  # -(I - QQ^H)(I (x) F)
    return np.linalg.qr(inside, mode="r")


def _leading_sines(r: np.ndarray, n: int, ck: int) -> np.ndarray:
    """The n singular values of (I_c (x) b_a(S)^k) Q for ck <= n = dim Q, from the leading block of each factor r.

    The operator is a partial isometry with kernel K = I_c (x) F[:, :k], so
    its singular values on Q are n - ck ones and the sines of the principal
    angles between span Q and K, those of R[:ck, :ck] of the kernel factor.
    """
    sines = np.linalg.svd(r[:, :ck, :ck], compute_uv=False)
    return np.concatenate((np.ones((len(r), n - ck)), sines), axis=1)


def _projected_sines(q: np.ndarray, copies: int, kernels: np.ndarray) -> np.ndarray:
    """The n singular values of (I_c (x) b_a(S)^k) Q, n = dim Q, for each zero's F[:, :k] in kernels.

    With K the kernel of ``_leading_sines`` they are those of (I - KK^H) Q,
    formed copy by copy, and of the n x n R of its QR.
    """
    n = q.shape[1]
    f, q_copies = kernels[:, None], q.reshape(copies, -1, n)
    outside = q_copies - f @ (f.conj().swapaxes(-1, -2) @ q_copies)  # (I - KK^H) Q, (count, copies, d, n)
    return np.linalg.svd(np.linalg.qr(outside.reshape(len(kernels), -1, n), mode="r"), compute_uv=False)


def _next_power(ranks: list[int], ahead: dict[int, int], mult: int) -> int | None:
    """The next power k at a zero of multiplicity mult whose rank the ranks known so far leave open.

    ranks holds the ranks of b_a^0, ..., b_a^k0 and ahead the ranks read
    past k0. The ranks these force are moved or filled into ranks, and
    None means every rank up to mult is known. The drops r_{k-1} - r_k
    never increase (chain_lengths refuses ranks whose drops do), so with
    delta the last drop, r_{k0+j} >= r_{k0} - j delta:
    - delta = 0 or r_{k0} = 0 (a plateau): every later rank is r_{k0};
    - else a run is read at k1 = min(mult, k0 + max(1, floor(r_{k0} / delta))),
      the last power where it can still be linear, and a rank there of
      r_{k0} - (k1 - k0) delta, or of r_{k0}, forces every rank in between;
    - else the interval is bisected.
    When the ranks fit a nilpotent, each k asked for is one that the read
    of every k up to the first rank 0 also takes (a run cannot reach 0
    before k0 + ceil(r_{k0} / delta)), and the forced ranks are the ones
    that read finds there.
    """
    while len(ranks) <= mult:
        k0, r = len(ranks) - 1, ranks[-1]
        drop = ranks[-2] - r if k0 else r + 1  # no drop is known before k = 1: ask for k = 1
        if not (drop and r):
            ranks += [ahead.get(k, r) for k in range(k0 + 1, mult + 1)]
            return None
        if not ahead:
            return min(mult, k0 + max(1, r // drop))
        target = min(ahead)
        span, read = target - k0, ahead.pop(target)
        if span == 1:
            ranks.append(read)
        elif read == r or read == r - span * drop:
            ranks += [r - j * (r - read) // span for j in range(1, span + 1)]
        else:
            ahead[target] = read
            return (k0 + target) // 2
    return None


def _jordan_restriction_model(ambient: AmbientSpace, m_frame: SubspaceFrame) -> JordanModel:
    """Model of T|M on the Jordan ambient, from M's angles to the kernels of b_a(T_N)^k.

    M is invariant, so b_a(T_N)^k Q = Q b_a(A)^k for A = T|M: the singular
    values of b_a(A)^k are those of b_a(T_N)^k Q, with no solve, power or
    dim M-square SVD. The kernels of the powers are nested, so each
    distinct group of c copies takes one QR over all zeros at once
    (``_kernel_factor``) and reads each k with ck <= dim Q from a leading
    triangular block of it (``_leading_sines``; Bjorck and Golub, Math.
    Comp. 27, 1973), and each larger k from (I - KK^H) Q
    (``_projected_sines``): every SVD has at most dim Q rows. A direct sum
    of groups has the union of their singular values. Each zero reads only
    the powers whose rank the ranks known so far leave open
    (``_next_power``), and the zeros that ask for the same k are read in
    one batch. When theta = b_a^d, b_a(S)^d = 0 kills every copy, so at
    k = d with ck > dim Q the rank 0 needs no read.
    The trade: inside a run of forced ranks no read is made, so reads
    there can no longer contradict each other.
    """
    n = m_frame.dim
    if n == 0:
        return JordanModel()
    space, zeros = ambient.model, ambient.theta.zeros
    mults = [m for _, m in zeros]
    kernels = np.zeros((len(zeros), space.dim, max(mults)), dtype=complex)
    for i, frame in enumerate(space.kernel_frames):
        kernels[i, :, : frame.shape[1]] = frame
    groups = m_frame.distinct_groups()
    factors = [None] * len(groups)  # a group's kernel factor, made when first read
    ranks, ahead = [[n] for _ in zeros], [{} for _ in zeros]
    asks = {1: list(range(len(zeros)))}  # power k -> the zeros that ask for it
    while asks:
        k = min(asks)
        live = asks.pop(k)
        parts = []
        for g, (copies, q, repeats) in enumerate(groups):
            dim = q.shape[1]
            if copies * k <= dim:
                if factors[g] is None:
                    factors[g] = _kernel_factor(q, copies, kernels)
                r = factors[g] if len(live) == len(zeros) else factors[g][live]
                part = _leading_sines(r, dim, copies * k)
            elif k == space.dim:
                part = np.zeros((len(live), dim))
            else:
                part = _projected_sines(q, copies, kernels[live, :, :k])
            parts += [part] * repeats
        sines = parts[0] if len(parts) == 1 else -np.sort(-np.concatenate(parts, axis=1), axis=1)
        for i, s in zip(live, sines):
            try:
                ahead[i][k] = _rank(s)
            except IllConditioned as exc:
                raise IllConditioned(f"rank of b_a(T|M)^k at a = {zeros[i][0]:.6g}, k = {k}: {exc}") from exc
            later = _next_power(ranks[i], ahead[i], mults[i])
            if later is not None:
                asks.setdefault(later, []).append(i)
    return _model(ambient.theta, ranks)


def subspace_models(
    ambient: AmbientSpace, m_frame: SubspaceFrame
) -> tuple[JordanModel, JordanModel]:
    """Jordan models of the restriction T|M and the compression T_{M^perp}.

    Only T|M is read, from M's angles to the kernels of b_a(T_N)^k, and M
    must be invariant. On an ambient conjugated by C, T|M is similar to
    the restriction of the Jordan ambient to (I (x) C^{-1}) M, which is
    read in its place. The compression model is the rectangle complement
    of the restriction model (JordanModel.complement, Klein's rule).
    M's own ambient must have the same theta, copies and similarity.
    """
    home = m_frame.ambient
    if (home.theta, home.copies) != (ambient.theta, ambient.copies) or not np.array_equal(
        home.similarity, ambient.similarity
    ):
        raise HypothesisViolated("the frame lives in another ambient")
    ok, residual = is_invariant(m_frame)
    if not ok:
        raise NotInvariant(f"invariance residual {residual:.3e}")
    if not ambient.is_jordan:
        inverse = np.linalg.inv(ambient.similarity)
        ambient = AmbientSpace(ambient.model, ambient.copies)
        groups = [(copy_list, copywise(inverse, block)) for copy_list, block in m_frame.groups]
        m_frame = SubspaceFrame(ambient, groups=[(c, orthonormalize(b, b.shape[1])) for c, b in groups])
    rest = _jordan_restriction_model(ambient, m_frame)
    return rest, rest.complement(ambient.theta, ambient.copies)


def canonical_subspace(
    ambient: AmbientSpace,
    restriction_model: JordanModel,
    compression_model: JordanModel,
) -> SubspaceFrame:
    """Frame for the canonical interleaved subspace of (phi, psi) in the ambient's N copies of H(theta).

    It is the direct sum of gamma_n H^2 (-) theta H^2 over the copies: for
    k < L = max(len phi, len psi), copy 2k has gamma = theta/phi_k and copy
    2k+1 has gamma = psi_k, and a part past its model's length gives
    gamma = theta, a zero summand. The frame is kept per copy, one block
    per distinct gamma, and the copies from 2L on share one empty block.
    Copy n adds S(theta/gamma_n) to the restriction and S(gamma_n) to the
    compression, so a proper divisor phi_k or psi_k adds parts beyond the
    given models.
    """
    theta, copies = ambient.theta, ambient.copies
    if restriction_model.parts and not inner.divides(restriction_model.parts[0], theta):
        raise HypothesisViolated("phi_0 must divide theta")
    if compression_model.parts and not inner.divides(compression_model.parts[0], theta):
        raise HypothesisViolated("psi_0 must divide theta")
    length = max(len(restriction_model), len(compression_model))
    if 2 * length > copies:
        raise HypothesisViolated(f"need at least {2 * length} copies, ambient has {copies}")
    psi = compression_model.parts + (theta,) * (length - len(compression_model))
    head = [g for k in range(length) for g in (quotient(theta, restriction_model.part(k)), psi[k])]
    frame = {g: invariant_subspace_of_block(ambient.model, g).frame for g in dict.fromkeys(head)}
    empty = np.zeros((ambient.model.dim, 0), dtype=complex)
    return SubspaceFrame.per_copy(ambient, [frame[g] for g in head] + [empty] * (copies - len(head)))


def random_invariant_subspace(
    ambient: AmbientSpace,
    rng: np.random.Generator,
    num_vectors: int = 1,
) -> SubspaceFrame:
    """Orbit closure of random vectors: span of T^k x over all k and x."""
    n = ambient.total_dim
    cols = []
    for _ in range(num_vectors):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for _ in range(n):
            cols.append(x.copy())
            x = ambient.apply(x)
    return SubspaceFrame(ambient, orthonormalize(np.column_stack(cols)))
