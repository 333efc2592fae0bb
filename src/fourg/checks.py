"""Batch invariant suites backing the command-line --check mode.

Each suite re-verifies one foundational property over a sweep of genera and
returns a short detail string, or raises on a failure.  Suites never repair
anything: a failure means an internal invariant is broken and callers should
treat it as an internal error (exit code 3 at the command line).
"""

from __future__ import annotations

from .actions import (
    _orbit,
    _product_one_count,
    _unique_main_class,
    braid_move,
    canonical_vector,
    classify,
    family_group,
    kernel_genus,
    main_action_class,
    smooth_vectors,
)
from .errors import FourgError
from .extensions import build_extensions, chain_target_group, cone_target_group
from .groups import _automorphism_count, automorphism_search
from .realforms import _reflection_records, species_set, symmetry_classes_with_ovals
from .signatures import enumerate_4g_signatures

__all__ = ["run_all_checks", "ALL_CHECKS"]


def check_group_axioms(g_min: int, g_max: int) -> str:
    """Identity, inverses, closure, associativity for the working groups."""
    count = 0
    for g in range(g_min, g_max + 1):
        for G in (family_group(g), chain_target_group(g), cone_target_group(g)):
            G._verify()
            count += 1
    return f"{count} multiplication tables verified"


def check_braid_invariance(g_min: int, g_max: int) -> str:
    """Braid moves never leave the unique class of the main family."""
    moves = 0
    for g in range(g_min, g_max + 1):
        v = canonical_vector(g)
        cls = _unique_main_class(v, classify(v.group, v.periods))
        for i in range(1, len(v.images)):
            moved = braid_move(v, i)
            if not cls.contains(moved.images):
                raise FourgError(f"braid move {i} escapes the class at genus {g}")
            if not cls.contains(braid_move(moved, i).images):
                raise FourgError(
                    f"double braid move {i} escapes the class at genus {g}"
                )
            moves += 2
    return f"{moves} moves stayed in class"


def check_kernel_genus(g_min: int, g_max: int) -> str:
    """Every admissible signature yields back the genus it was built for."""
    count = 0
    for g in range(g_min, g_max + 1):
        for sig, _ in enumerate_4g_signatures(g):
            got = kernel_genus(4 * g, sig)
            if got != g:
                raise FourgError(
                    f"signature {sig} gives kernel genus {got}, expected {g}"
                )
            count += 1
    return f"{count} signatures round-tripped"


def check_species_constraints(g_min: int, g_max: int) -> str:
    """Every emitted species satisfies the topological oval bounds."""
    emitted = 0
    for g in range(g_min, g_max + 1):
        for e in build_extensions(main_action_class(g)):
            classes = symmetry_classes_with_ovals(e)
            species = species_set(e, classes)
            if len(species) != len(classes):
                raise FourgError(
                    f"{e.label} at genus {g}: {len(species)} species for"
                    f" {len(classes)} symmetry classes"
                )
            for sp in species:
                # signed_species validates the oval bounds; re-assert the
                # signed range so the check is explicit.
                if not -g <= sp <= g + 1:
                    raise FourgError(f"species {sp} outside [-{g}, {g + 1}]")
                emitted += 1
    return f"{emitted} species within bounds"


def check_centralizer_images(g_min: int, g_max: int) -> str:
    """Oval-count data sits inside the right centralizers with whole indices.

    The records are recomputed on every call, so the rule subgroups and
    their guards run again even after a command has built its report.
    """
    records = 0
    for g in range(g_min, g_max + 1):
        for e in build_extensions(main_action_class(g)):
            records += len(_reflection_records(e))
    return f"{records} reflection records verified"


def check_main_class_count(g_min: int, g_max: int) -> str:
    """The main action's count certificate, against the full enumeration.

    Per genus, three counts of the generating vectors on (2,2,2,2g) must
    agree: the class-function count of product-one tuples, the weighted
    total of the whole search, and |Aut(G)| times the keys of the unique
    class with ascending periods.  |Aut(G)| by orbit and stabilizer must
    equal the length of the listed automorphism group.
    """
    for g in range(g_min, g_max + 1):
        v = canonical_vector(g)
        G = v.group
        periods = (2, 2, 2, 2 * g)
        product_one = _product_one_count(G, periods)
        enumerated = sum(G.class_size(t[0]) for t in smooth_vectors(G, periods))
        n_aut = _automorphism_count(G)
        listed = len(automorphism_search(G))
        keys = _orbit(G, v.indices).values()
        by_keys = n_aut * sum(
            tuple(G.element_order(i) for i in t) == periods for t in keys
        )
        if not product_one == enumerated == by_keys or n_aut != listed:
            raise FourgError(
                f"genus {g}: {product_one} product-one tuples, {enumerated}"
                f" enumerated vectors, {by_keys} by keys; |Aut| {n_aut}"
                f" counted, {listed} listed"
            )
    return f"genera {g_min}..{g_max}: class-function count = enumeration = |Aut| x keys"


ALL_CHECKS = (
    check_group_axioms,
    check_braid_invariance,
    check_kernel_genus,
    check_species_constraints,
    check_centralizer_images,
    check_main_class_count,
)


def run_all_checks(g_min: int = 2, g_max: int = 6) -> list:
    """Run every suite; failures become results, never silent passes.

    Returns one ``(name, passed, detail)`` triple per suite, in the order of
    ``ALL_CHECKS``: the name is the function's without its ``check_`` prefix
    and with hyphens, the detail the suite's returned string or, on a
    failure, its error message.
    """
    if not 2 <= g_min <= g_max:
        raise ValueError(f"need 2 <= g_min <= g_max, got {g_min}..{g_max}")
    results = []
    for check in ALL_CHECKS:
        name = check.__name__.replace("check_", "").replace("_", "-")
        try:
            results.append((name, True, check(g_min, g_max)))
        except FourgError as exc:
            results.append((name, False, str(exc)))
    return results
