"""The derived liveness rules' certificates and the invariance sub-prover.

A rule builder reads a certificate's bindings, has the kernel check the
rule's target and its eps (`kernel.check_rule`, `kernel.check_eps`), runs
the witness searches (`initial_value`, `upper_bound_on`, `lie_lower_bound`)
and hands the bindings, the witnesses and the duration kind to the rule's
`kernel.step_*` constructor, which works out every gate, premise, witness
and stay premise and builds the existence leaf.  A rule over the
unconstrained system is then wrapped in the certificate's `post` / `via`
refinements and the domain refinement (COR, DR or SAR); `apply_rule`
refuses a proof whose root concludes another sequent than the problem's.

Box-modality premises are discharged by `prove_invariance`, which hands
each certificate hint, in order, to its kernel step constructor (DW, DI, BC,
DC, DX, DomainWeaken), falling back from DI's plain Lie premise to its
strict-boundary variant.  With no hints it tries DW, then DI for an atomic
postcondition, and splits a conjunction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from . import arith, topology
from .errors import (
    HintMismatch,
    MissingCertificateField,
    RuleRefused,
    ShapeMismatch,
    TopoUnknown,
    UnreadBinding,
)
from .kernel import (
    CLOCK_NAME,
    GATE,
    PROVED,
    Sequent,
    box,
    check_eps,
    check_rule,
    dia,
    discharge,
    in_domain,
    modal_parts,
    print_sequent,
    step_and_split,
    step_bc,
    step_compact_dom,
    step_dc,
    step_di,
    step_domain_weaken,
    step_dv,
    step_dv_eq,
    step_dw,
    step_dx,
    step_goal_refine,
    step_monotone_dia,
    step_refine_domain,
    step_slyap,
    step_sp,
    step_sp_bounded,
    step_topo_closed_open,
    step_topo_semialg,
)
from .normal import atoms_of, equality_polys
from .record import Frozen
from .symbolic import Polynomial, lie_derivative, reduce_mod_equalities
from .syntax import (
    TRUE,
    And,
    BoolLit,
    CertStep,
    Cmp,
    Formula,
    Or,
    ProblemFile,
    conj,
    conjuncts,
)

# ---------------------------------------------------------------------------
# Invariance hints


class DIStep(Frozen):
    __slots__ = ("formula",)
    _defaults = {"formula": None}  # None: the node's postcondition


class DCStep(Frozen):
    __slots__ = ("cut", "hints")
    _defaults = {"hints": ()}


class DWStep(Frozen):
    __slots__ = ()


class DXStep(Frozen):
    __slots__ = ()


class BCStep(Frozen):
    __slots__ = ("poly",)


class DomainWeakenStep(Frozen):
    __slots__ = ("formula",)


# hint step -> (its step class, the bindings it reads as `_binding`
# arguments: key, kind, default, required)
_HINTS = {
    "DI": (DIStep, (("f", "formula"),)),
    "DC": (DCStep, (("f", "formula", None, True), ("hints", "hints", ()))),
    "DW": (DWStep, ()),
    "DX": (DXStep, ()),
    "BC": (BCStep, (("p", "polynomial", None, True),)),
    "DomainWeaken": (DomainWeakenStep, (("f", "formula", None, True),)),
}


def hints_from_cert(steps) -> tuple:
    """The hint steps of a `hint [...]` block; as for rules, a binding the
    hint never reads is refused."""
    out = []
    for s in steps:
        if s.name not in _HINTS:
            raise HintMismatch(f"'{s.name}' is not an invariance hint")
        make, reads = _HINTS[s.name]
        args = [_binding(s, *read) for read in reads]
        if s.name == "DI" and args[0] is not None and not isinstance(args[0], Cmp):
            raise HintMismatch("DI takes an atomic comparison binding 'f'")
        unread = [k for k, _ in s.bindings if k not in {read[0] for read in reads}]
        if unread:
            raise UnreadBinding(s.name, unread)
        out.append(make(*args))
    return tuple(out)


# ---------------------------------------------------------------------------
# Checker: obligation discharge with caching


class Checker:
    """Discharges obligations; caches by structural key.  One checker serves
    one command: its verdicts, the `arith.Region` of every hypothesis it
    proves a conclusion over, its invariance proofs and its Bounded searches
    live as long as it does."""

    def __init__(self, budget: Optional[arith.Budget] = None):
        self.budget = budget or arith.Budget()
        self._arith_cache: dict = {}
        self._regions: dict = {}
        self._boxes: dict = {}
        self._bounded: dict = {}

    # Each cache is read with one lookup, since a key hashes its records
    # anew, and no entry is None.

    def prove(self, ob: arith.ArithObligation, budget=None) -> arith.ArithVerdict:
        budget = budget or self.budget  # an Unknown holds only for its budget
        verdict = self._arith_cache.get((ob, budget))
        if verdict is None:
            verdict = self._arith_cache[ob, budget] = arith.prove_implication(ob, budget=budget, regions=self._regions)
        return verdict

    def prove_box(self, seq: Sequent, hints):
        """The invariance proof of `seq` from `hints`, built once: a sub-goal
        posed again with the same hints shares the first proof tree."""
        proof = self._boxes.get((seq, hints))
        if proof is None:
            proof = self._boxes[seq, hints] = prove_invariance(seq, hints, self)
        return proof

    def bounded(self, formula: Formula, vars) -> topology.TopoVerdict:
        """Bounded(formula) over `vars` by `topology.check_bounded`, searched
        once: Compact of the same set reuses the search and its witness."""
        verdict = self._bounded.get((formula, vars))
        if verdict is None:
            verdict = self._bounded[formula, vars] = topology.check_bounded(formula, vars, self.prove)
        return verdict

    def run(self, root):
        """Discharge every obligation of the tree; returns `root`."""
        for node in root.walk():
            for ob in node.obligations:
                discharge(ob, self)
        return root


# ---------------------------------------------------------------------------
# Invariance sub-prover


# the hints that close a branch, by the name a certificate gives them
_FINAL_HINTS = {DWStep: "DW", DIStep: "DI", BCStep: "BC"}


def prove_invariance(seq: Sequent, hints, checker: Checker):
    """Prove a box-modality sequent by handing each hint, in order, to its
    kernel step constructor.  Failed attempts leave an Unknown node carrying
    the failed obligation, never a false positive."""
    system, domain, post = modal_parts(seq, True)
    if not hints:
        return _auto_invariance(seq, checker)
    head, rest = hints[0], hints[1:]
    if rest and type(head) in _FINAL_HINTS:
        raise HintMismatch(f"{_FINAL_HINTS[type(head)]} must be the final hint")
    if isinstance(head, DWStep):
        return checker.run(step_dw(seq))
    if isinstance(head, DIStep):
        if head.formula is not None and head.formula != post:
            raise HintMismatch("DI hint formula differs from the postcondition")
        return _di(seq, checker)
    if isinstance(head, BCStep):
        return checker.run(step_bc(seq, head.poly))
    if isinstance(head, DCStep):
        cut_proof = prove_invariance(Sequent(seq.context, box(system, head.cut)), head.hints, checker)
        stronger = Sequent(seq.context, box(system.with_domain(conj([domain, head.cut])), post))
        return step_dc(seq, head.cut, cut_proof, prove_invariance(stronger, rest, checker))
    if isinstance(head, DXStep):
        extended = Sequent(seq.context + tuple(conjuncts(domain)), seq.succedent)
        return step_dx(seq, prove_invariance(extended, rest, checker))
    if isinstance(head, DomainWeakenStep):
        weaker = Sequent(seq.context, box(system.with_domain(head.formula), post))
        return step_domain_weaken(seq, head.formula, prove_invariance(weaker, rest, checker))
    raise HintMismatch(f"unrecognized hint {head!r}")


def _auto_invariance(seq: Sequent, checker: Checker):
    """No hints: DW; for an atomic postcondition then DI; a conjunction splits."""
    dw = checker.run(step_dw(seq))
    if dw.verdict() == PROVED:
        return dw
    system, _, post = modal_parts(seq, True)
    if isinstance(post, Cmp):
        return _di(seq, checker)
    if isinstance(post, And):
        parts = [_auto_invariance(Sequent(seq.context, box(system, part)), checker) for part in conjuncts(post)]
        return step_and_split(seq, parts)
    return dw


def _di(seq: Sequent, checker: Checker):
    """DI; for an inequality whose Lie premise fails, the strict-boundary
    variant when that one is proved."""
    plain = checker.run(step_di(seq))
    lie = plain.obligations[-1]
    if lie.verdict() == PROVED or lie.obligation.conclusion.op == "=":
        return plain
    boundary = checker.run(step_di(seq, boundary=True))
    return boundary if boundary.obligations[-1].verdict() == PROVED else plain


# ---------------------------------------------------------------------------
# Certificate bindings


def _as_formula(v) -> Optional[Formula]:
    return v if isinstance(v, (Cmp, And, Or, BoolLit)) else None


# binding kind -> (what a value of the kind is, reader returning None for a misfit)
_KINDS = {
    "polynomial": (
        "a polynomial",
        lambda v: v if isinstance(v, Polynomial) else Polynomial.const(v) if isinstance(v, Fraction) else None,
    ),
    "rational": ("a rational literal", lambda v: v if isinstance(v, Fraction) else None),
    "integer": (
        "a positive integer",
        lambda v: int(v) if isinstance(v, Fraction) and v.denominator == 1 and v >= 1 else None,
    ),
    "formula": ("a formula", _as_formula),
    "hints": ("a hint [...] block", lambda v: hints_from_cert(v) if isinstance(v, tuple) else None),
}


def _binding(step: CertStep, key: str, kind, default=None, required=False):
    """Binding `key` of `step` read as `kind`, a key of `_KINDS` or a tuple
    of the bare identifiers allowed; `default` when the binding is absent."""
    v = step.get(key)
    if v is None:
        if required:
            raise MissingCertificateField(f"rule {step.name} needs binding '{key}'")
        return default
    if isinstance(kind, tuple):
        if isinstance(v, str) and v in kind:
            return v
        what = "one of " + ", ".join(kind)
    else:
        what, read = _KINDS[kind]
        out = read(v)
        if out is not None:
            return out
    raise MissingCertificateField(f"binding '{key}' of {step.name} must be {what}")


# ---------------------------------------------------------------------------
# Witness searches


def initial_value(p: Polynomial, assumptions) -> Optional[Fraction]:
    """Exact initial value of p forced by equational assumptions, if any."""
    atoms = []
    for f in assumptions:
        a = atoms_of(f)
        if a:
            atoms.extend(a)
    r = reduce_mod_equalities(p, equality_polys(atoms))
    return r.constant_value()


def upper_bound_on(p: Polynomial, region: Formula, checker: Checker) -> Optional[Fraction]:
    """Some rational c with region |- p <= c, from atoms or a doubling search."""
    # an atom c - p >= 0 (or = 0) of the region bounds p by c
    consts = [(a.poly + p).constant_value() for a in atoms_of(region) or () if a.op in (">=", "=")]
    best = min((c for c in consts if c is not None), default=None)
    if best is not None:
        return best
    return topology.first_proved(region, p, "<=", topology.DOUBLING[:17], checker.prove)


_HALVING = tuple(Fraction(1, 2**k) for k in range(9))


def lie_lower_bound(le: Polynomial, region: Formula, checker: Checker) -> Optional[Fraction]:
    """Some positive rational c with region |- le >= c (for display bounds)."""
    return topology.first_proved(region, le, ">=", _HALVING, checker.prove)


def _const(c: Optional[Fraction]) -> Optional[Polynomial]:
    return None if c is None else Polynomial.const(c)


class _Rule:
    """One rule application: the certificate's bindings, each read through
    `get` or `has`, and the parts of the problem the builders use."""

    def __init__(self, problem: ProblemFile, cert: CertStep, checker: Checker):
        if problem.goal is None:
            raise ShapeMismatch("problem has no goal block")
        self.problem, self.cert, self.checker = problem, cert, checker
        self.name, self.dom = cert.name, in_domain(cert.name)
        self.gamma = problem.assumptions
        self.goal = problem.goal
        self.domain = TRUE if problem.system.domain is None else problem.system.domain
        self.sys0 = problem.system.with_domain(TRUE)
        self.read = set()  # the certificate keys the builder asked for

    def get(self, key: str, kind, default=None, required=False):
        self.read.add(key)
        return _binding(self.cert, key, kind, default, required)

    def has(self, key: str) -> bool:
        self.read.add(key)
        return self.cert.has(key)

    def target(self, post: Optional[Formula] = None, variant=None, system=None) -> Sequent:
        """The sequent the rule concludes, over the problem's system for a `_dom`
        rule, refused by the kernel's shape checks before any witness search."""
        if system is None:
            system = self.problem.system if self.dom else self.sys0
        seq = Sequent(self.gamma, dia(system, self.goal if post is None else post))
        check_rule(self.name, seq, variant)
        return seq

    def p0(self, p: Polynomial) -> Optional[Fraction]:
        """The certificate's initial variant value, else the one the assumptions force."""
        p0 = self.get("p0", "rational")
        return initial_value(p, self.gamma) if p0 is None else p0

    def p1(self, p: Polynomial, region: Formula) -> Optional[Fraction]:
        """The certificate's bound on p over `region`, else one searched for."""
        p1 = self.get("p1", "rational")
        return upper_bound_on(p, region, self.checker) if p1 is None else p1

    def region_hints(self, bounds: Optional[Formula]) -> tuple:
        """The stay premise's hints, read when the rule argues inside a region."""
        return self.get("hints", "hints", ()) if self.dom or bounds not in (None, TRUE) else ()


# ---------------------------------------------------------------------------
# Wrapper pipeline (post / via / domain)


def _peel_wrappers(r: _Rule):
    """Returns (core_goal, wrapper_specs); wrappers listed outermost first."""
    current, specs = r.goal, []
    post = r.get("post", "formula")
    if post is not None:
        specs.append(("mono", current, post, ()))
        current = post
    via = r.get("via", "formula")
    if via is not None:
        specs.append(("via", current, via, r.get("via_hints", "hints", ())))
        current = via
    return current, specs


_DOMAIN_STEPS = {"COR": step_topo_closed_open, "DR": step_refine_domain, "SAR": step_topo_semialg}
_DURATIONS = {"GEx": "GEx", "BEx": "BEx", "assume": "assumption"}  # certificate word -> existence leaf


def _apply_wrappers(r: _Rule, node, specs=(), domain_hints=()):
    """Wrap the core node with via / post steps and the domain refinement."""
    for kind, outer, inner, hints in reversed(specs):
        target = Sequent(r.gamma, dia(r.sys0, outer))
        if kind == "via":
            node = step_goal_refine(target, inner, node, hints=hints)
        else:
            node = step_monotone_dia(target, inner, node)
    if r.domain != TRUE:
        step = _DOMAIN_STEPS[r.get("domain_via", tuple(_DOMAIN_STEPS), "COR")]
        hints = r.get("domain_hints", "hints", ()) or domain_hints
        node = step(Sequent(r.gamma, dia(r.problem.system, r.goal)), TRUE, node, hints=hints)
    return node


# ---------------------------------------------------------------------------
# Rule builders


def _rule_dv(r: _Rule, *, op: str, star: bool = False, order: int = 1):
    """Differential variants dV_geq, dV_gt, dV_geq_star, dV_k, dV_geq_dom and dV_gt_dom."""
    p, bounds = r.get("p", "polynomial", required=True), r.get("box", "formula")
    eps = check_eps(r.name, r.get("eps", "polynomial"), r.sys0)
    core_goal, specs = _peel_wrappers(r)
    if r.dom and specs:
        raise ShapeMismatch("post/via refinements are not supported with domain rules")
    target = r.target(core_goal, (p, op))
    p0, p1, escape, escape_hints = r.p0(p), Fraction(0), None, ()
    duration = _DURATIONS[r.get("duration", tuple(_DURATIONS), "assume" if star else "GEx")]
    if duration == "BEx":
        escape = r.get("duration_B", "formula", required=True)
        escape_hints = r.get("duration_hints", "hints", ())
        p1 = r.p1(p, escape)
    node = step_dv(
        r.name, target, p, eps, duration, op=op, order=order, bounds=bounds, p0=p0, p1=p1, escape=escape,
        hints=r.region_hints(bounds), escape_hints=escape_hints,
    )
    return node if r.dom else _apply_wrappers(r, node, specs)


def _rule_dv_eq(r: _Rule):
    """Equational differential variants dV_eq / dV_eqM and domain variants."""
    p, bounds = r.get("p", "polynomial", required=True), r.get("box", "formula")
    eps = check_eps(r.name, r.get("eps", "polynomial"), r.sys0)
    target, p0 = r.target(system=r.problem.system), r.p0(p)
    return step_dv_eq(
        r.name, target, p, eps, bounds=bounds, p0=p0, hints=r.region_hints(bounds), replay_hints=(DXStep(), BCStep(p)),
    )


def _rule_sp(r: _Rule):
    """SP and SP_dom: a staging set on which the variant is nonpositive."""
    p = r.get("p", "polynomial", required=True)
    S = r.get("S", "formula", required=True)
    eps, hints = check_eps(r.name, r.get("eps", "polynomial"), r.sys0), r.get("hints", "hints", ())
    target, p0 = r.target(), r.p0(p)
    node = step_sp(r.name, target, p, eps, S, p0=p0, hints=hints)
    return node if r.dom else _apply_wrappers(r, node, domain_hints=hints)


def _rule_sp_bounded(r: _Rule, *, eps_witness: bool = False):
    """SP_b (bounded staging set) and SP_c (compact staging set, where eps is
    an optional witness, searched for when the certificate gives none)."""
    p = r.get("p", "polynomial", required=True)
    S = r.get("S", "formula", required=True)
    target = r.target()
    if eps_witness:
        eps = _const(r.get("eps", "rational"))
        if eps is None:
            eps = _const(lie_lower_bound(lie_derivative(p, r.sys0), S, r.checker))
    else:
        eps = check_eps(r.name, r.get("eps", "polynomial"), r.sys0)
    hints = r.get("hints", "hints", ())
    p0, p1 = r.p0(p), r.p1(p, S)
    # the clock cut that refines the duration, used with a numeric time bound
    duration_hints = ()
    if p0 is not None and eps is not None:
        cut = Cmp(">=", p, Polynomial.const(p0) + eps * Polynomial.var(CLOCK_NAME))
        duration_hints = (DCStep(cut, (DIStep(),)), DWStep())
    node = step_sp_bounded(r.name, target, p, S, eps, p0=p0, p1=p1, hints=hints, duration_hints=duration_hints)
    return _apply_wrappers(r, node, domain_hints=hints)


def _rule_slyap(r: _Rule):
    """Set Lyapunov functions, compact K and open goal (SLyap / SLyap_dom)."""
    p = r.get("p", "polynomial", required=True)
    K = r.get("K", "formula", required=True)
    strict = not r.dom and r.has("strict")
    node = step_slyap(r.name, r.target(), p, K, strict=strict)
    return node if r.dom else _apply_wrappers(r, node)


def _rule_compact_dom(r: _Rule, *, staged: bool = False):
    """SP_ck_dom (staged: a compact staging set S) and E_c_dom under a domain."""
    p = r.get("p", "polynomial", required=True)
    S = r.get("S", "formula", required=True) if staged else None
    k = r.get("k", "integer", 1) if staged else 1
    hints = r.get("hints", "hints", ())
    return step_compact_dom(r.name, r.target(), p, S=S, k=k, hints=hints)


def _rule_dv_k(r: _Rule):
    return _rule_dv(r, op=">" if r.has("strict") else ">=", order=r.get("k", "integer", 1))


def _builder(build, **flags):
    """The builder of one rule; it refuses a certificate key it never read."""

    def run(problem, cert, checker):
        r = _Rule(problem, cert, checker)
        node = build(r, **flags)
        unread = [k for k, _ in cert.bindings if k not in r.read]
        if unread:
            raise UnreadBinding(r.name, unread)
        return node

    return run


RULE_BUILDERS: dict = {
    "dV_geq": _builder(_rule_dv, op=">="),
    "dV_gt": _builder(_rule_dv, op=">"),
    "dV_geq_star": _builder(_rule_dv, op=">=", star=True),
    "dV_k": _builder(_rule_dv_k),
    "dV_geq_dom": _builder(_rule_dv, op=">="),
    "dV_gt_dom": _builder(_rule_dv, op=">"),
    "dV_eq": _builder(_rule_dv_eq),
    "dV_eqM": _builder(_rule_dv_eq),
    "dV_eq_dom": _builder(_rule_dv_eq),
    "dV_eqM_dom": _builder(_rule_dv_eq),
    "SP": _builder(_rule_sp),
    "SP_b": _builder(_rule_sp_bounded),
    "SP_c": _builder(_rule_sp_bounded, eps_witness=True),
    "SLyap": _builder(_rule_slyap),
    "SLyap_dom": _builder(_rule_slyap),
    "SP_dom": _builder(_rule_sp),
    "SP_ck_dom": _builder(_rule_compact_dom, staged=True),
    "E_c_dom": _builder(_rule_compact_dom),
}


def apply_rule(problem: ProblemFile, cert: CertStep, checker: Optional[Checker] = None):
    """Build and check the refinement chain for a certificate step; its root
    must conclude the problem's sequent.

    Raises RuleRefused when a gate side condition fails; the partially
    checked proof is attached to the exception as `.proof`.
    """
    checker = checker or Checker()
    builder = RULE_BUILDERS.get(cert.name)
    if builder is None:
        raise MissingCertificateField(f"unknown rule '{cert.name}'")
    try:
        root = builder(problem, cert, checker)
    except TopoUnknown as e:
        raise RuleRefused("TopoUnknown", str(e)) from e
    want = Sequent(problem.assumptions, dia(problem.system, problem.goal))
    if root.conclusion != want:
        raise ShapeMismatch(f"rule {cert.name} concludes {print_sequent(root.conclusion)}, not {print_sequent(want)}")
    checker.run(root)
    gate = _first_unproved_gate(root)
    if gate is not None:
        raise _refusal(gate, root)
    return root


# Neither helper below refers to itself or keeps the exception in a frame, so
# a proof tree and its checker are freed by reference counting once the
# caller lets go of them, also after a refusal has been handled.


def _first_unproved_gate(root):
    """The first gate obligation that is not proved, in pre-order: a rule's
    own gates before its children's, so a refusal names the rule's own
    condition."""
    stack = [root]
    while stack:
        node = stack.pop()
        for ob in node.obligations:
            if getattr(ob, "role", None) == GATE and ob.verdict() != PROVED:
                return ob
        stack.extend(reversed(node.children))
    return None


def _refusal(gate, root) -> RuleRefused:
    exc = RuleRefused(gate.label, detail=gate.describe())
    exc.proof = root
    return exc
