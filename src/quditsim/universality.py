"""Reduction of many-qudit couplings to verified two-body certificates.

Given an entangling expansion with at least one non-qubit, the engine
eliminates qudits from coupling terms one at a time (a commutator of two
retargeted copies of the isolated term followed by a Pauli twirl on the
dropped qudit), reduces any term to a star of two-qudit couplings, and
grows a connected, spanning set of compiled two-body coupling programs.
All-qubit systems are refused: there the classification verdicts of the
qubit-only theory apply and no certificate is constructed.
"""

from dataclasses import dataclass

from .isolation import isolate_term
from .majorization import retarget_term
from .model import (
    CouplingTerm,
    Expansion,
    QuditSystem,
    Verdict,
    VerdictKind,
    classify,
    expand,
    is_entangling,
    reconstruct,
)
from .operators import GellMannLabel, max_abs
from .program import (
    Commutator,
    SimulationProgram,
    Sum,
    graft,
    measure,
    pauli_branches,
)


class NotEntanglingError(ValueError):
    """The expansion does not connect its qudit set."""

    def __init__(self, partition):
        left, right = partition
        super().__init__(
            "Hamiltonian is not entangling; witness partition "
            f"{{{','.join(map(str, left))}}} | {{{','.join(map(str, right))}}}"
        )
        self.partition = partition


class NotConstructiveError(ValueError):
    """All-qubit input: only classification verdicts apply."""

    def __init__(self, verdict: Verdict):
        super().__init__(
            f"no constructive certificate for all-qubit systems (verdict: {verdict.describe()})"
        )
        self.verdict = verdict


class ZeroCommutatorError(ValueError):
    """A recipe commutator vanished, signalling misuse of the recipe."""


@dataclass(frozen=True)
class Edge:
    """A verified two-qudit coupling program."""

    i: int
    j: int
    program: SimulationProgram
    term: CouplingTerm
    scale: float

    @property
    def pair(self) -> tuple[int, int]:
        return (self.i, self.j) if self.i < self.j else (self.j, self.i)


@dataclass(frozen=True)
class DropResult:
    program: SimulationProgram
    term: CouplingTerm
    scale: float


@dataclass(frozen=True)
class UniversalityCertificate:
    """Spanning, connected set of verified two-body coupling programs."""

    anchor: int
    edges: tuple[Edge, ...]
    verdict: Verdict
    iterations: int = 0


def partner_term(alpha: CouplingTerm, keep_equal_on: int, system: QuditSystem) -> CouplingTerm:
    """Companion coupling whose commutator with alpha keeps full support.

    The input must carry ``X:1:2`` on every support qudit except possibly
    ``keep_equal_on``.  The partner agrees there, swaps non-qubit factors
    to ``X:1:3`` and qubit factors to ``Y:1:2``.  The remainder must not
    consist of qubits exclusively.
    """
    support = alpha.support
    if keep_equal_on not in support:
        raise ValueError(f"qudit {keep_equal_on} is not in the support {support}")
    rest = [j for j in support if j != keep_equal_on]
    if not rest:
        raise ValueError("the coupling must touch at least one other qudit")
    if all(system.dims[j] == 2 for j in rest):
        raise ValueError("the remainder set must not consist of qubits exclusively")
    x12 = GellMannLabel.x(1, 2)
    factors = {keep_equal_on: alpha.label_at(keep_equal_on)}
    for j in rest:
        if alpha.label_at(j) != x12:
            raise ValueError(f"recipe expects X:1:2 on qudit {j}, got {alpha.label_at(j)}")
        factors[j] = GellMannLabel.y(1, 2) if system.dims[j] == 2 else GellMannLabel.x(1, 3)
    return CouplingTerm.of(factors)


def commutator_expansion(
    alpha: CouplingTerm, beta: CouplingTerm, system: QuditSystem
) -> Expansion:
    """Expansion of i[alpha, beta] for same-support couplings."""
    if alpha.support != beta.support:
        raise ValueError("commutator recipe needs couplings on the same support")
    a = alpha.matrix(system)
    b = beta.matrix(system)
    comm = 1j * (a @ b - b @ a)
    if max_abs(comm) < 1e-12:
        raise ZeroCommutatorError(f"[{alpha}, {beta}] vanishes")
    return expand(comm, system)


def drop_qudit(expansion: Expansion, term: CouplingTerm, qudit: int) -> DropResult:
    """Simulate a coupling on the term's support with one qudit removed.

    A library entry: isolates the term and calls ``drop_isolated``.  A
    star isolates its term once, so ``reduce_to_two_body`` never calls it.
    """
    iso = isolate_term(expansion, term)
    return drop_isolated(iso.program, iso.scale, term, qudit, expansion.system)


def _simulating(program, term: CouplingTerm, h: float, system: QuditSystem) -> DropResult:
    """``program`` simulates ``h * term``; the result simulates ``|h| * term``."""
    if h > 0:
        return DropResult(program, term, h)
    return DropResult(graft(retarget_term(term, h, term, -h, system), program), term, -h)


def drop_isolated(
    program: SimulationProgram,
    scale: float,
    term: CouplingTerm,
    qudit: int,
    system: QuditSystem,
) -> DropResult:
    """Drop one qudit from a term that ``program`` already simulates.

    ``program`` must simulate ``scale * term`` with ``scale > 0``.  Two
    retargeted copies become the commutator recipe pair that agrees on
    the dropped qudit; a full Pauli twirl of that qudit turns the shared
    squared factor into the identity.  When the remainder commutator is a
    single term ``h * gamma`` the twirled commutator already simulates it,
    so only a negative ``h`` needs a sign-flipping retarget; otherwise one
    full-support term of the remainder is isolated.
    """
    support = term.support
    if qudit not in support:
        raise ValueError(f"qudit {qudit} is not coupled by {term}")
    if len(support) < 2:
        raise ValueError("cannot drop a qudit from a single-qudit coupling")
    rest = [j for j in support if j != qudit]
    if all(system.dims[j] == 2 for j in rest):
        raise ValueError("the remaining qudits must not be qubits exclusively")

    x12 = GellMannLabel.x(1, 2)
    recipe_alpha = CouplingTerm.of({j: x12 for j in support})
    recipe_beta = partner_term(recipe_alpha, qudit, system)

    prog_alpha = graft(retarget_term(term, scale, recipe_alpha, 1.0, system), program)
    prog_beta = graft(retarget_term(term, scale, recipe_beta, 1.0, system), program)
    comm = Commutator(prog_alpha, prog_beta)

    twirled = Sum(((1.0, comm),) + pauli_branches(system.dims, qudit, comm))

    # The twirl maps the shared squared factor on the dropped qudit to
    # d_q * I, leaving d_q times the remainder commutator.
    remainder = commutator_expansion(
        recipe_alpha.without(qudit), recipe_beta.without(qudit), system
    )
    scaled = Expansion.from_array(system, system.dims[qudit] * remainder.without_offset().coeffs)
    full = [t for t in sorted(scaled.coefficients) if set(t.support) == set(rest)]
    if not full:
        raise ZeroCommutatorError("remainder commutator has no full-support term")
    gamma = full[0]
    if scaled.term_count() == 1:
        return _simulating(twirled, gamma, scaled.coefficient(gamma), system)
    inner = isolate_term(scaled, gamma)
    return DropResult(graft(inner.program, twirled), gamma, inner.scale)


def reduce_to_two_body(
    expansion: Expansion, term: CouplingTerm, anchor: int
) -> list[Edge]:
    """Star of two-qudit coupling programs centered on the anchor.

    The term is isolated once.  Partner ``j``'s edge drops every other
    partner in descending order, keeping the non-qubit anchor in every
    support; these drop sequences form a trie that ``_star`` walks once.
    """
    system = expansion.system
    support = term.support
    if anchor not in support:
        raise ValueError(f"anchor {anchor} is not coupled by {term}")
    if system.dims[anchor] == 2:
        raise ValueError("the anchor must not be a qubit")
    if len(support) < 2:
        raise ValueError("reduction needs a coupling on more than one qudit")
    iso = isolate_term(expansion, term)
    return _star(DropResult(iso.program, term, iso.scale), anchor, system)


def _star(start: DropResult, anchor: int, system: QuditSystem) -> list[Edge]:
    """Ascending edges to the anchor's partners from one walk of the drop trie.

    The head drops partners from the top; ``j``'s edge drops those below ``j``.
    """
    partners = sorted((q for q in start.term.support if q != anchor), reverse=True)
    head, edges = start, []
    for n, j in enumerate(partners):
        if n:
            head = drop_isolated(head.program, head.scale, head.term, partners[n - 1], system)
        dropped = head
        for q in partners[n + 1:]:
            dropped = drop_isolated(dropped.program, dropped.scale, dropped.term, q, system)
        assert set(dropped.term.support) == {anchor, j}
        edges.append(Edge(anchor, j, dropped.program, dropped.term, dropped.scale))
    return edges[::-1]


def connect_all(expansion: Expansion) -> UniversalityCertificate:
    """Grow a verified spanning set of two-body couplings.

    Starting from the lowest-index non-qubit, each round picks the
    smallest term leaving the covered set.  Terms containing a non-qubit
    are reduced to a star there; all-qubit terms are commuted against a
    retargeted existing edge (every covered qubit keeps an edge to a
    non-qubit, maintained as a loop invariant) to regain a non-qubit
    support before reduction.
    """
    verdict = classify(expansion)
    if verdict.kind is VerdictKind.NON_ENTANGLING:
        raise NotEntanglingError(verdict.partition)
    if verdict.kind is not VerdictKind.UNIVERSAL_CONSTRUCTIVE:
        raise NotConstructiveError(verdict)

    system = expansion.system
    source = reconstruct(expansion.without_offset())
    anchor = min(system.non_qubits())
    covered = {anchor}
    everyone = set(range(system.size))
    by_pair: dict[tuple[int, int], Edge] = {}
    qubit_link: dict[int, Edge] = {}

    def register(edge: Edge) -> None:
        if edge.pair in by_pair:
            return
        by_pair[edge.pair] = edge
        lo, hi = edge.pair
        for qubit, other in ((lo, hi), (hi, lo)):
            if system.dims[qubit] == 2 and system.dims[other] > 2:
                qubit_link.setdefault(qubit, edge)

    iterations = 0
    while covered != everyone:
        iterations += 1
        if iterations > system.size:
            raise RuntimeError("certificate construction failed to make progress")
        candidates = [
            t
            for t in sorted(expansion.coefficients)
            if set(t.support) & covered and not set(t.support) <= covered
        ]
        if not candidates:
            raise RuntimeError("entangling expansion ran out of crossing terms")
        beta = candidates[0]
        non_qubits = [j for j in beta.support if system.dims[j] > 2]
        if non_qubits:
            for edge in reduce_to_two_body(expansion, beta, min(non_qubits)):
                register(edge)
        else:
            _attach_all_qubit_term(expansion, beta, covered, qubit_link, register)
        covered |= set(beta.support)

    # Edges keep their symbolic scales; the dense measurement confirms them.
    edges = [by_pair[pair] for pair in sorted(by_pair)]
    for edge in edges:
        scale, resid, _ = measure(edge.program, source, system, edge.term)
        if scale <= 0 or resid > 1e-9 or abs(scale - edge.scale) > 1e-9 * abs(edge.scale):
            raise RuntimeError(
                f"edge ({edge.i},{edge.j}) failed verification: scale={scale:.3e} "
                f"(expected {edge.scale:.3e}), residual={resid:.3e}"
            )
    _check_certificate(system, edges)
    return UniversalityCertificate(anchor, tuple(edges), verdict, iterations)


def _attach_all_qubit_term(
    expansion: Expansion,
    beta: CouplingTerm,
    covered: set[int],
    qubit_link: dict[int, "Edge"],
    register,
) -> None:
    """Handle a crossing term that couples qubits only.

    Commuting a retargeted covered edge (as an X-Z type coupling on a
    non-qubit/qubit pair) against the all-X retargeted term produces a
    single coupling ``h * bridge_term`` with the non-qubit adjoined; that
    commutator program starts the bridge term's star without isolation.
    """
    system = expansion.system
    inside = min(j for j in beta.support if j in covered)
    base = qubit_link.get(inside)
    if base is None:
        raise RuntimeError(f"covered qubit {inside} has no edge to a non-qubit")
    hub = base.i if system.dims[base.i] > 2 else base.j

    x12 = GellMannLabel.x(1, 2)
    xz_term = CouplingTerm.of({hub: x12, inside: GellMannLabel.w(2)})
    prog_xz = graft(
        retarget_term(base.term, base.scale, xz_term, 1.0, system), base.program
    )
    iso = isolate_term(expansion, beta)
    all_x = CouplingTerm.of({j: x12 for j in beta.support})
    prog_x = graft(retarget_term(beta, iso.scale, all_x, 1.0, system), iso.program)
    comm = Commutator(prog_xz, prog_x)

    xz, xx = xz_term.matrix(system), all_x.matrix(system)
    bridged = expand(1j * (xz @ xx - xx @ xz), system)
    if bridged.term_count() != 1:
        raise RuntimeError("bridging commutator did not yield a single coupling term")
    ((bridge_term, h),) = bridged.coefficients.items()
    for edge in _star(_simulating(comm, bridge_term, h, system), hub, system):
        register(edge)


def _check_certificate(system: QuditSystem, edges: list[Edge]) -> None:
    for edge in edges:
        if len(set(edge.term.support)) != 2 or set(edge.term.support) != set(edge.pair):
            raise RuntimeError(f"edge ({edge.i},{edge.j}) does not couple exactly its pair")
    spanned = Expansion(system, {edge.term: edge.scale for edge in edges})
    if not is_entangling(spanned, range(system.size)):
        raise RuntimeError("certificate edges do not connect every qudit")
    for qubit in system.qubits():
        partners = [
            edge.pair[0] + edge.pair[1] - qubit for edge in edges if qubit in edge.pair
        ]
        if not any(system.dims[other] > 2 for other in partners):
            raise RuntimeError(f"qubit {qubit} lacks an edge to a non-qubit")
