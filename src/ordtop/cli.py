"""Command-line front door.

Subcommand tree: ord | poset | hyper | space | clopen | mrowka | selftest.
Value operations print canonical strings; checks print JSON reports with
stable key order, so identical inputs give byte-identical output.  Exit
status: 0 success / all checks pass, 1 a check failed (witness in the
payload), 2 usage or input error.  Handlers raise; the root group
``_Main`` is the single error boundary that turns an input error into
one ``error:`` line on stderr and exit status 2.

Only the ordinal layer is imported here.  Each handler imports the layers
it uses in its own body, so a call loads only its group's modules, and
only ``selftest`` loads the acceptance battery.
"""

from __future__ import annotations

import json
import sys

import click

from .ordinal import (
    CheckReport,
    NatOrOmega,
    format_ordinal,
    loads_json,
    nat_prod,
    nat_sum,
    odot,
    one_plus_inverse,
    ord_add,
    ord_cmp,
    ord_mul,
    ord_pow,
    parse_natural,
    parse_ordinal,
    tip_deg,
)

# every domain error (OrdinalError, PosetError, ...) subclasses ValueError
_INPUT_ERRORS = (ValueError, OSError, KeyError, TypeError)
MAX_HORIZON = 1 << 20  # mrowka convergence masks every set up to it: about 0.15 s
MAX_TRUNCATION = 1 << 14  # mrowka.MAX_TRUNCATION, which the CLI loads only in handlers


def emit_text(text, json_file=None):
    # the file first: an unwritable path exits 2 before anything is printed
    if json_file:
        with open(json_file, "w") as fh:
            fh.write(text + "\n")
    click.echo(text)


def emit_json(payload, json_file=None):
    emit_text(json.dumps(payload, sort_keys=True), json_file)
    sys.exit(0 if payload.get("pass", True) else 1)


def load_json_file(path):
    with open(path) as fh:
        return loads_json(fh.read())


json_opt = click.option("--json", "json_file", type=click.Path(), default=None,
                        help="also write the output to a file")


class _Main(click.Group):
    """The root group and the CLI's one error boundary: an input error
    raised anywhere below it prints one ``error:`` line and exits 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except _INPUT_ERRORS as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(2)


@click.group(cls=_Main)
def main():
    """Exact ordinal arithmetic, finite posets, hyperspaces of downsets,
    clopen interval algebra, and almost disjoint families."""


# -- ord ------------------------------------------------------------------

@main.group("ord")
def ord_group():
    """Cantor-normal-form ordinal arithmetic."""


def _binary_ord_command(name, fn, doc):
    @ord_group.command(name, help=doc)
    @click.argument("a")
    @click.argument("b")
    @json_opt
    def cmd(a, b, json_file, _fn=fn):
        emit_text(format_ordinal(_fn(parse_ordinal(a), parse_ordinal(b))), json_file)


_binary_ord_command("add", ord_add, "Ordinal sum a + b.")
_binary_ord_command("mul", ord_mul, "Ordinal product a * b.")
_binary_ord_command("pow", ord_pow, "Ordinal power a ^ b.")
_binary_ord_command("natsum", nat_sum, "Natural (coefficient-merging) sum.")
_binary_ord_command("natprod", nat_prod, "Natural (polynomial) product.")


@ord_group.command("norm")
@click.argument("expr")
@json_opt
def ord_norm(expr, json_file):
    """Normalize an ordinal expression to canonical form."""
    emit_text(format_ordinal(parse_ordinal(expr)), json_file)


@ord_group.command("odot")
@click.argument("a")
@click.argument("b")
@json_opt
def ord_odot(a, b, json_file):
    """Iterated natural sum a (.) b with b a natural or 'w'."""
    right = NatOrOmega.omega() if b.strip() == "w" else NatOrOmega.finite(parse_natural(b))
    emit_text(format_ordinal(odot(parse_ordinal(a), right)), json_file)


@ord_group.command("cmp")
@click.argument("a")
@click.argument("b")
@json_opt
def ord_cmp_cmd(a, b, json_file):
    """Compare two ordinals: prints LT, EQ or GT."""
    c = ord_cmp(parse_ordinal(a), parse_ordinal(b))
    emit_text({-1: "LT", 0: "EQ", 1: "GT"}[c], json_file)


@ord_group.command("tip")
@click.argument("a")
@json_opt
def ord_tip(a, json_file):
    """Tip block, tip exponent and degree of a positive ordinal."""
    info = tip_deg(parse_ordinal(a))
    emit_json({"tip": format_ordinal(info.tip),
               "tip_exponent": format_ordinal(info.tip_exponent),
               "degree": format_ordinal(info.degree)}, json_file)


@ord_group.command("oneplusinv")
@click.argument("r")
@json_opt
def ord_oneplusinv(r, json_file):
    """The unique a with 1 + a = r."""
    emit_text(format_ordinal(one_plus_inverse(parse_ordinal(r))), json_file)


# -- poset -----------------------------------------------------------------

@main.group("poset")
def poset_group():
    """Finite posets: ranks, width, downsets, union-rank checks."""


@poset_group.command("zaguia")
@click.argument("file", type=click.Path())
@json_opt
def poset_zaguia(file, json_file):
    """Verify the downset union-rank inequalities for a poset file."""
    from .poset import poset_from_json, zaguia_verify
    p = poset_from_json(load_json_file(file))
    emit_json(zaguia_verify(p).to_json(), json_file)


@poset_group.command("ranks")
@click.argument("file", type=click.Path())
@json_opt
def poset_ranks(file, json_file):
    """Well-founded ranks of the elements and of the poset."""
    from .poset import poset_from_json, ranks
    r = ranks(poset_from_json(load_json_file(file)))
    emit_json({"elem_rank": dict(sorted(r.elem_rank.items())),
               "poset_rank": r.poset_rank}, json_file)


@poset_group.command("width")
@click.argument("file", type=click.Path())
@json_opt
def poset_width(file, json_file):
    """Maximum antichain size (= minimum chain cover)."""
    from .poset import poset_from_json, width
    emit_json({"width": width(poset_from_json(load_json_file(file)))}, json_file)


@poset_group.command("downsets")
@click.argument("file", type=click.Path())
@click.option("--dot", is_flag=True, help="emit the downset lattice as DOT")
@json_opt
def poset_downsets(file, dot, json_file):
    """The lattice of downsets, as member lists or a DOT diagram."""
    from .poset import downset_lattice, poset_from_json, poset_to_dot
    p = poset_from_json(load_json_file(file))
    lat = downset_lattice(p)
    if dot:
        emit_text(poset_to_dot(lat).rstrip("\n"), json_file)
    else:
        emit_json({"count": lat.n, "downsets": sorted(lat.labels)}, json_file)


@poset_group.command("hasse")
@click.argument("file", type=click.Path())
@json_opt
def poset_hasse(file, json_file):
    """Hasse diagram of the poset in DOT."""
    from .poset import poset_from_json, poset_to_dot
    emit_text(poset_to_dot(poset_from_json(load_json_file(file))).rstrip("\n"), json_file)


# -- hyper -----------------------------------------------------------------

@main.group("hyper")
def hyper_group():
    """Hyperspaces of downsets and Vietoris density."""


@hyper_group.command("build")
@click.argument("file", type=click.Path())
@click.option("--dot", is_flag=True, help="emit the hyperspace as DOT")
@json_opt
def hyper_build(file, dot, json_file):
    """Build the hyperspace of a poset and print its points."""
    from .hyperspace import build_hyperspace, hyperspace_to_dot
    from .poset import downset_labels, poset_from_json
    h = build_hyperspace(poset_from_json(load_json_file(file)))
    if dot:
        emit_text(hyperspace_to_dot(h).rstrip("\n"), json_file)
    else:
        emit_json(CheckReport("hyperspace-structure", True, None, {
            "size": h.size, "points": downset_labels(h.base, h.points)}).to_json(),
            json_file)


@hyper_group.command("selector")
@click.argument("file", type=click.Path())
@json_opt
def hyper_selector(file, json_file):
    """Check the principal-downset selector axioms on the hyperspace."""
    from .hyperspace import build_hyperspace, kplus_selector, selector_axioms_check
    from .poset import poset_from_json
    h = build_hyperspace(poset_from_json(load_json_file(file)))
    hp, fam = kplus_selector(h)
    emit_json(selector_axioms_check(hp, fam).to_json(), json_file)


@hyper_group.command("universal")
@click.argument("file", type=click.Path())
@click.option("--chain", "chain_len", type=click.IntRange(min=1, max=64), default=3,
              help="target chain semilattice length, between 1 and 64")
@json_opt
def hyper_universal(file, chain_len, json_file):
    """Verify the unique join-extension property against a chain target."""
    from .hyperspace import FinJoinSemilattice, hat_extension
    from .poset import poset_from_json, ranks
    p = poset_from_json(load_json_file(file))
    y = FinJoinSemilattice.chain(chain_len)
    f = {name: min(r, chain_len - 1) for name, r in zip(p.labels, ranks(p).by_index)}
    _, rep = hat_extension(p, y, f)
    emit_json(rep.to_json(), json_file)


def _parse_descriptor(text):
    from .hyperspace import Descriptor, HyperspaceError
    kind, _, rest = text.partition(":")
    members = frozenset(int(x) for x in rest.split(",") if x.strip())
    if kind == "fin":
        return Descriptor.finite(members)
    if kind == "cof":
        return Descriptor.cofinite_complement(members)
    raise HyperspaceError(f"descriptor must be fin:... or cof:..., got {text!r}")


@hyper_group.command("density")
@click.option("--u", "upper", required=True,
              help="clopen descriptor, e.g. fin:1,2 or cof:0,5 (complement)")
@click.option("--v", "lowers", multiple=True, help="lower constraints")
@click.option("--horizon", type=int, default=10_000)
@json_opt
def hyper_density(upper, lowers, horizon, json_file):
    """Find a finite set inside a basic Vietoris open, if one exists."""
    from .hyperspace import OnePointModel, vietoris_density_witness
    model = OnePointModel(horizon)
    witness = vietoris_density_witness(model, _parse_descriptor(upper),
                                       [_parse_descriptor(v) for v in lowers])
    emit_json(CheckReport("vietoris-density", witness is not None, witness).to_json(),
              json_file)


# -- space ------------------------------------------------------------------

@main.group("space")
def space_group():
    """Symbolic space terms: reports, bounds, hyperspace heights."""


@space_group.command("report")
@click.argument("term")
@json_opt
def space_report(term, json_file):
    """Height, end-point count, unitarity and rank of a space term."""
    from .spaceterm import parse_term, term_report
    emit_json(term_report(parse_term(term)).to_json(), json_file)


@space_group.command("bounds")
@click.argument("term")
@json_opt
def space_bounds(term, json_file):
    """Exact height/rank bound chain for a term with a computed rank."""
    from .spaceterm import check_height_rank_bounds, parse_term
    emit_json(check_height_rank_bounds(parse_term(term)).to_json(), json_file)


@space_group.command("hyper-point")
@click.argument("r")
@json_opt
def space_hyper_point(r, json_file):
    """Hyperspace height of a selector set at a point of rank r."""
    from .spaceterm import hyper_point_height
    emit_text(format_ordinal(hyper_point_height(parse_ordinal(r))), json_file)


@space_group.command("hyper-antichain")
@click.argument("labels", nargs=-1, required=True)
@json_opt
def space_hyper_antichain(labels, json_file):
    """Hyperspace height of an antichain with the given rank labels."""
    from .spaceterm import hyper_antichain_height
    value = hyper_antichain_height([parse_ordinal(x) for x in labels])
    emit_text(format_ordinal(value), json_file)


@space_group.command("skeleton-bound")
@click.argument("term")
@json_opt
def space_skeleton_bound(term, json_file):
    """Check every antichain height of a skeleton against w^rank."""
    from .spaceterm import SkelTerm, TermError, parse_term, skeleton_hyper_bound_check
    t = parse_term(term)
    if not isinstance(t, SkelTerm):
        raise TermError("skeleton-bound needs a skel(...) term")
    emit_json(skeleton_hyper_bound_check(t.skeleton).to_json(), json_file)


@space_group.command("monotonicity")
@click.argument("term")
@json_opt
def space_monotonicity(term, json_file):
    """Strictness of hyperspace heights along downset inclusion (forests)."""
    from .spaceterm import SkelTerm, TermError, hyper_monotonicity_check, parse_term
    t = parse_term(term)
    if not isinstance(t, SkelTerm):
        raise TermError("monotonicity needs a skel(...) term")
    emit_json(hyper_monotonicity_check(t.skeleton).to_json(), json_file)


# -- clopen -------------------------------------------------------------------

@main.group("clopen")
def clopen_group():
    """Clopen interval algebra of an ordinal space."""


@clopen_group.command("op")
@click.argument("operation", type=click.Choice(["union", "intersect", "complement"]))
@click.argument("a")
@click.argument("b", required=False)
@json_opt
def clopen_op(operation, a, b, json_file):
    """Boolean operation on clopen sets in text form '(s,t] ... @ alpha'."""
    from .clopen import clopen_algebra, format_clopen, parse_clopen
    result = clopen_algebra(operation, parse_clopen(a),
                            parse_clopen(b) if b is not None else None)
    emit_text(format_clopen(result), json_file)


@clopen_group.command("cb")
@click.argument("a")
@json_opt
def clopen_cb_cmd(a, json_file):
    """Height, end points and unitarity of a clopen set."""
    from .clopen import clopen_cb, parse_clopen
    data = clopen_cb(parse_clopen(a))
    emit_json({"height": format_ordinal(data.height),
               "endpoints": [format_ordinal(x, compact=True) for x in data.endpoints],
               "unitary": data.unitary,
               "lastpt": format_ordinal(data.lastpt) if data.lastpt is not None else None},
              json_file)


@clopen_group.command("tip")
@click.argument("beta")
@click.argument("alpha")
@json_opt
def clopen_tip(beta, alpha, json_file):
    """Canonical selector set of a point inside [0, alpha]."""
    from .clopen import format_clopen, tip_selector
    emit_text(format_clopen(tip_selector(parse_ordinal(beta), parse_ordinal(alpha))),
              json_file)


@clopen_group.command("treelike")
@click.argument("alpha")
@click.argument("points", nargs=-1, required=True)
@json_opt
def clopen_treelike(alpha, points, json_file):
    """Laminarity of the selector sets of the given points."""
    from .clopen import treelike_check
    rep = treelike_check(parse_ordinal(alpha), [parse_ordinal(p) for p in points])
    emit_json(rep.to_json(), json_file)


@clopen_group.command("minclopen")
@click.argument("beta")
@click.argument("alpha")
@click.option("--grid", default=None,
              help="comma-separated endpoint candidates (default: truncations of beta)")
@json_opt
def clopen_minclopen(beta, alpha, grid, json_file):
    """Least minimal-length clopen set with the prescribed end point."""
    from .clopen import cnf_truncation_grid, format_clopen, min_clopen_with_endpoint
    b = parse_ordinal(beta)
    grid_vals = ([parse_ordinal(g) for g in grid.split(",")]
                 if grid else cnf_truncation_grid(b))
    emit_text(format_clopen(min_clopen_with_endpoint(b, parse_ordinal(alpha), grid_vals)),
              json_file)


# -- mrowka --------------------------------------------------------------------

@main.group("mrowka")
def mrowka_group():
    """Almost disjoint families and the quotient semilattice."""


@mrowka_group.command("adcheck")
@click.argument("file", type=click.Path())
@json_opt
def mrowka_adcheck(file, json_file):
    """Pairwise almost-disjointness with residue certificates."""
    from .mrowka import ad_check, family_sets
    emit_json(ad_check(family_sets(load_json_file(file))).to_json(), json_file)


@mrowka_group.command("star")
@click.argument("file", type=click.Path())
@click.argument("code_bound", type=int)
@json_opt
def mrowka_star(file, code_bound, json_file):
    """Finite-subset codes per branch and the intersection law."""
    from .mrowka import ADFamily, star_truncation
    fam = ADFamily.from_json(load_json_file(file))
    _, rep = star_truncation(fam, code_bound)
    emit_json(rep.to_json(), json_file)


@mrowka_group.command("join")
@click.argument("file", type=click.Path())
@click.argument("x")
@click.argument("y")
@json_opt
def mrowka_join(file, x, y, json_file):
    """Join of two points of the quotient semilattice."""
    from .mrowka import ADFamily, format_point, g_join, parse_point
    fam = ADFamily.from_json(load_json_file(file))
    emit_text(format_point(g_join(parse_point(x), parse_point(y), fam)), json_file)


@mrowka_group.command("convergence")
@click.argument("file", type=click.Path())
@click.argument("i", type=int)
@click.argument("j", type=int)
@click.option("--horizon", type=click.IntRange(max=MAX_HORIZON), default=128)
@json_opt
def mrowka_convergence(file, i, j, horizon, json_file):
    """Certify the escape threshold of joined prefix nets."""
    from .mrowka import ADFamily, convergence_check
    fam = ADFamily.from_json(load_json_file(file))
    emit_json(convergence_check(fam, i, j, horizon).to_json(), json_file)


@mrowka_group.command("lusin")
@click.argument("file", type=click.Path())
@click.option("--steps", type=click.IntRange(min=1), default=1)
@json_opt
def mrowka_lusin(file, steps, json_file):
    """Iterate exact-count stages over a family file."""
    from .mrowka import ADFamily, check_lusin_picks, family_sets, lusin_iterate
    sets = family_sets(load_json_file(file))
    check_lusin_picks(len(sets), steps)  # before the pairwise check of ADFamily
    last = lusin_iterate(ADFamily(sets), steps)[-1]
    emit_json(CheckReport("lusin-stages", True, None, {
        "steps": steps, "final_m": last.m,
        "block_sizes": [len(b) for b in last.blocks],
        "l1_counts": [list(kv) for kv in last.l1_counts]}).to_json(), json_file)


@mrowka_group.command("selector")
@click.argument("file", type=click.Path())
@click.option("--bound", "truncation", type=click.IntRange(max=MAX_TRUNCATION), default=64,
              help="truncation of the natural-number part")
@json_opt
def mrowka_selector(file, truncation, json_file):
    """Canonical selector conditions on the truncated family space."""
    from .mrowka import family_sets, mrowka_selector_check
    sets = family_sets(load_json_file(file))
    emit_json(mrowka_selector_check(sets, truncation).to_json(), json_file)


# -- selftest ---------------------------------------------------------------------

@main.command("selftest")
@click.option("--seed", type=int, required=True, help="seed for the randomized suites")
@click.option("--criteria", default=None,
              help="comma-separated criterion numbers to run (default: all)")
@json_opt
def selftest(seed, criteria, json_file):
    """Run the acceptance battery; one line per criterion."""
    from .acceptance import run_all
    numbers = [int(x) for x in criteria.split(",")] if criteria else None
    results = run_all(seed=seed, numbers=numbers)
    for r in results:
        click.echo(r.line())
    emit_json(CheckReport("selftest", all(r.passed for r in results),
                          [r.name for r in results if not r.passed] or None,
                          {"seed": seed}).to_json(), json_file)


if __name__ == "__main__":
    main()
