"""Command-line front door.

Subcommand tree: ord | poset | hyper | space | clopen | mrowka | selftest.
Value operations print canonical strings; checks print JSON reports with
stable key order, so identical inputs give byte-identical output.  Exit
status: 0 success / all checks pass, 1 a check failed (witness in the
payload), 2 usage or input error.  Handlers return their result and
raise; one command class, ``_Command``, prints every result, adds
``--json FILE``, sets the exit status and is the single error boundary
that turns an input error into one ``error:`` line on stderr and exit 2.

Only the ordinal layer is imported here.  Each handler imports the layers
it uses in its own body, so a call loads only its group's modules, and
only ``selftest`` loads the acceptance battery.
"""

from __future__ import annotations

import json
import sys

import click

from .ordinal import (
    OMEGA,
    CheckReport,
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
    parse_naturals,
    parse_ordinal,
    parse_ordinals,
    tip_deg,
)

# every domain error (OrdinalError, PosetError, ...) subclasses ValueError
_INPUT_ERRORS = (ValueError, OSError, KeyError, TypeError)


class _Natural(click.ParamType):
    """An integer option or argument read as the ordinal grammar's ``nat``,
    as every other number the CLI reads: a sign, an underscore or a
    non-ASCII digit is a usage error that names its position, and so is a
    value below ``minimum``.  Upper limits are the library's to refuse."""

    name = "natural"

    def __init__(self, minimum=0):
        self.minimum = minimum

    def convert(self, value, param, ctx):
        if isinstance(value, int):  # a default
            return value
        try:
            n = parse_natural(value)
        except ValueError as e:
            self.fail(str(e), param, ctx)
        if n < self.minimum:
            self.fail(f"{n} is less than {self.minimum}", param, ctx)
        return n


NATURAL = _Natural()
POSITIVE = _Natural(minimum=1)


def load_json_file(path):
    with open(path) as fh:
        return loads_json(fh.read())


def _render(result) -> tuple:
    """The text a handler's result prints, and its verdict: a str prints
    as is, a dict or ``CheckReport`` as sorted JSON whose ``pass`` is the
    verdict, and a list one item a line."""
    lines, passed = [], True
    for item in result if isinstance(result, list) else [result]:
        if isinstance(item, CheckReport):
            item = item.to_json()
        if isinstance(item, dict):
            passed = passed and item.get("pass", True)
            item = json.dumps(item, sort_keys=True)
        lines.append(item)
    return "\n".join(lines), passed


class _Command(click.Command):
    """Runs a handler and prints what it returns; an input error raised
    in the handler or while printing exits 2.  ``--json FILE``, the last
    parameter, is written first, so an unwritable path prints nothing."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.params.append(click.Option(["--json", "json_file"], type=click.Path(),
                                        help="also write the output to a file"))

    def invoke(self, ctx):
        json_file = ctx.params.pop("json_file")
        try:
            text, passed = _render(super().invoke(ctx))
            if json_file:
                with open(json_file, "w") as fh:
                    fh.write(text + "\n")
            click.echo(text)
        except _INPUT_ERRORS as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(2)
        if not passed:
            sys.exit(1)


class _Group(click.Group):
    command_class = _Command
    group_class = type  # subgroups are _Groups too


@click.group(cls=_Group)
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
    def cmd(a, b, _fn=fn):
        return format_ordinal(_fn(parse_ordinal(a), parse_ordinal(b)))


_binary_ord_command("add", ord_add, "Ordinal sum a + b.")
_binary_ord_command("mul", ord_mul, "Ordinal product a * b.")
_binary_ord_command("pow", ord_pow, "Ordinal power a ^ b.")
_binary_ord_command("natsum", nat_sum, "Natural (coefficient-merging) sum.")
_binary_ord_command("natprod", nat_prod, "Natural (polynomial) product.")


@ord_group.command("norm")
@click.argument("expr")
def ord_norm(expr):
    """Normalize an ordinal expression to canonical form."""
    return format_ordinal(parse_ordinal(expr))


@ord_group.command("odot")
@click.argument("a")
@click.argument("b")
def ord_odot(a, b):
    """Iterated natural sum a (.) b with b a natural or 'w'."""
    right = OMEGA if b.strip() == "w" else parse_natural(b)
    return format_ordinal(odot(parse_ordinal(a), right))


@ord_group.command("cmp")
@click.argument("a")
@click.argument("b")
def ord_cmp_cmd(a, b):
    """Compare two ordinals: prints LT, EQ or GT."""
    c = ord_cmp(parse_ordinal(a), parse_ordinal(b))
    return {-1: "LT", 0: "EQ", 1: "GT"}[c]


@ord_group.command("tip")
@click.argument("a")
def ord_tip(a):
    """Tip block, tip exponent and degree of a positive ordinal."""
    info = tip_deg(parse_ordinal(a))
    return {"tip": format_ordinal(info.tip),
            "tip_exponent": format_ordinal(info.tip_exponent),
            "degree": format_ordinal(info.degree)}


@ord_group.command("oneplusinv")
@click.argument("r")
def ord_oneplusinv(r):
    """The unique a with 1 + a = r."""
    return format_ordinal(one_plus_inverse(parse_ordinal(r)))


# -- poset -----------------------------------------------------------------

@main.group("poset")
def poset_group():
    """Finite posets: ranks, width, downsets, union-rank checks."""


@poset_group.command("zaguia")
@click.argument("file", type=click.Path())
def poset_zaguia(file):
    """Verify the downset union-rank inequalities for a poset file."""
    from .poset import poset_from_json, zaguia_verify
    p = poset_from_json(load_json_file(file))
    return zaguia_verify(p)


@poset_group.command("ranks")
@click.argument("file", type=click.Path())
def poset_ranks(file):
    """Well-founded ranks of the elements and of the poset."""
    from .poset import poset_from_json, ranks
    r = ranks(poset_from_json(load_json_file(file)))
    return {"elem_rank": dict(sorted(r.elem_rank.items())), "poset_rank": r.poset_rank}


@poset_group.command("width")
@click.argument("file", type=click.Path())
def poset_width(file):
    """Maximum antichain size (= minimum chain cover)."""
    from .poset import poset_from_json, width
    return {"width": width(poset_from_json(load_json_file(file)))}


@poset_group.command("downsets")
@click.argument("file", type=click.Path())
@click.option("--dot", is_flag=True, help="emit the downset lattice as DOT")
def poset_downsets(file, dot):
    """The lattice of downsets, as member lists or a DOT diagram."""
    from .poset import all_downsets, downset_labels, downset_lattice, poset_from_json, poset_to_dot
    p = poset_from_json(load_json_file(file))
    if dot:
        return poset_to_dot(downset_lattice(p)).rstrip("\n")
    masks = all_downsets(p)  # the member lists need no order on them
    return {"count": len(masks), "downsets": sorted(downset_labels(p, masks))}


@poset_group.command("hasse")
@click.argument("file", type=click.Path())
def poset_hasse(file):
    """Hasse diagram of the poset in DOT."""
    from .poset import poset_from_json, poset_to_dot
    return poset_to_dot(poset_from_json(load_json_file(file))).rstrip("\n")


# -- hyper -----------------------------------------------------------------

@main.group("hyper")
def hyper_group():
    """Hyperspaces of downsets and Vietoris density."""


@hyper_group.command("build")
@click.argument("file", type=click.Path())
@click.option("--dot", is_flag=True, help="emit the hyperspace as DOT")
def hyper_build(file, dot):
    """Build the hyperspace of a poset and print its points."""
    from .hyperspace import build_hyperspace, hyperspace_to_dot
    from .poset import downset_labels, poset_from_json
    h = build_hyperspace(poset_from_json(load_json_file(file)))
    if dot:
        return hyperspace_to_dot(h).rstrip("\n")
    else:
        return CheckReport("hyperspace-structure", True, None, {
            "size": h.size, "points": downset_labels(h.base, h.points)})


@hyper_group.command("selector")
@click.argument("file", type=click.Path())
def hyper_selector(file):
    """Check the principal-downset selector axioms on the hyperspace."""
    from .hyperspace import build_hyperspace, kplus_selector, selector_axioms_check
    from .poset import poset_from_json
    h = build_hyperspace(poset_from_json(load_json_file(file)))
    hp, fam = kplus_selector(h)
    return selector_axioms_check(hp, fam)


@hyper_group.command("universal")
@click.argument("file", type=click.Path())
@click.option("--chain", "chain_len", type=POSITIVE, default=3,
              help="target chain semilattice length")
def hyper_universal(file, chain_len):
    """Verify the unique join-extension property against a chain target."""
    from .hyperspace import FinJoinSemilattice, build_hyperspace, hat_extension
    from .poset import poset_from_json, ranks
    y = FinJoinSemilattice.chain(chain_len)  # refuses past MAX_CHAIN before the file is read
    p = poset_from_json(load_json_file(file))
    f = {name: min(r, chain_len - 1) for name, r in zip(p.labels, ranks(p).by_index)}
    return hat_extension(build_hyperspace(p), y, f)[1]


def _parse_descriptor(text):
    from .hyperspace import Descriptor, HyperspaceError
    kind = text.partition(":")[0]
    if kind not in ("fin", "cof"):
        raise HyperspaceError(f"descriptor must be fin:... or cof:..., got {text!r}")
    return Descriptor(kind == "cof", parse_naturals(text, len(kind) + 1))


@hyper_group.command("density")
@click.option("--u", "upper", required=True,
              help="clopen descriptor, e.g. fin:1,2 or cof:0,5 (complement)")
@click.option("--v", "lowers", multiple=True, help="lower constraints")
@click.option("--horizon", type=NATURAL, default=10_000)
def hyper_density(upper, lowers, horizon):
    """Find a finite set inside a basic Vietoris open, if one exists."""
    from .hyperspace import OnePointModel, vietoris_density_witness
    model = OnePointModel(horizon)
    witness = vietoris_density_witness(model, _parse_descriptor(upper),
                                       [_parse_descriptor(v) for v in lowers])
    return CheckReport("vietoris-density", witness is not None, witness)


# -- space ------------------------------------------------------------------

@main.group("space")
def space_group():
    """Symbolic space terms: reports, bounds, hyperspace heights."""


@space_group.command("report")
@click.argument("term")
def space_report(term):
    """Height, end-point count, unitarity and rank of a space term."""
    from .spaceterm import parse_term, term_report
    return term_report(parse_term(term)).to_json()


@space_group.command("bounds")
@click.argument("term")
def space_bounds(term):
    """Exact height/rank bound chain for a term with a computed rank."""
    from .spaceterm import check_height_rank_bounds, parse_term
    return check_height_rank_bounds(parse_term(term))


@space_group.command("hyper-point")
@click.argument("r")
def space_hyper_point(r):
    """Hyperspace height of a selector set at a point of rank r."""
    from .spaceterm import hyper_point_height
    return format_ordinal(hyper_point_height(parse_ordinal(r)))


@space_group.command("hyper-antichain")
@click.argument("labels", nargs=-1, required=True)
def space_hyper_antichain(labels):
    """Hyperspace height of an antichain with the given rank labels."""
    from .spaceterm import hyper_antichain_height
    value = hyper_antichain_height([parse_ordinal(x) for x in labels])
    return format_ordinal(value)


@space_group.command("skeleton-bound")
@click.argument("term")
def space_skeleton_bound(term):
    """Check every antichain height of a skeleton against w^rank."""
    from .spaceterm import SkelTerm, TermError, parse_term, skeleton_hyper_bound_check
    t = parse_term(term)
    if not isinstance(t, SkelTerm):
        raise TermError("skeleton-bound needs a skel(...) term")
    return skeleton_hyper_bound_check(t.skeleton)


@space_group.command("monotonicity")
@click.argument("term")
def space_monotonicity(term):
    """Strictness of hyperspace heights along downset inclusion (forests)."""
    from .spaceterm import SkelTerm, TermError, hyper_monotonicity_check, parse_term
    t = parse_term(term)
    if not isinstance(t, SkelTerm):
        raise TermError("monotonicity needs a skel(...) term")
    return hyper_monotonicity_check(t.skeleton)


# -- clopen -------------------------------------------------------------------

@main.group("clopen")
def clopen_group():
    """Clopen interval algebra of an ordinal space."""


@clopen_group.command("op")
@click.argument("operation", type=click.Choice(["union", "intersect", "complement"]))
@click.argument("a")
@click.argument("b", required=False)
def clopen_op(operation, a, b):
    """Boolean operation on clopen sets in text form '(s,t] ... @ alpha'."""
    from .clopen import clopen_algebra, format_clopen, parse_clopen
    result = clopen_algebra(operation, parse_clopen(a),
                            parse_clopen(b) if b is not None else None)
    return format_clopen(result)


@clopen_group.command("cb")
@click.argument("a")
def clopen_cb_cmd(a):
    """Height, end points and unitarity of a clopen set."""
    from .clopen import clopen_cb, parse_clopen
    data = clopen_cb(parse_clopen(a))
    return {"height": format_ordinal(data.height),
            "endpoints": [format_ordinal(x, compact=True) for x in data.endpoints],
            "unitary": data.unitary,
            "lastpt": format_ordinal(data.lastpt) if data.lastpt is not None else None}


@clopen_group.command("tip")
@click.argument("beta")
@click.argument("alpha")
def clopen_tip(beta, alpha):
    """Canonical selector set of a point inside [0, alpha]."""
    from .clopen import format_clopen, tip_selector
    return format_clopen(tip_selector(parse_ordinal(beta), parse_ordinal(alpha)))


@clopen_group.command("treelike")
@click.argument("alpha")
@click.argument("points", nargs=-1, required=True)
def clopen_treelike(alpha, points):
    """Laminarity of the selector sets of the given points."""
    from .clopen import treelike_check
    return treelike_check(parse_ordinal(alpha), [parse_ordinal(p) for p in points])


@clopen_group.command("minclopen")
@click.argument("beta")
@click.argument("alpha")
@click.option("--grid", default=None,
              help="comma-separated endpoint candidates (default: truncations of beta)")
def clopen_minclopen(beta, alpha, grid):
    """Least minimal-length clopen set with the prescribed end point."""
    from .clopen import cnf_truncation_grid, format_clopen, min_clopen_with_endpoint
    b = parse_ordinal(beta)
    grid_vals = parse_ordinals(grid) if grid else cnf_truncation_grid(b)
    return format_clopen(min_clopen_with_endpoint(b, parse_ordinal(alpha), grid_vals))


# -- mrowka --------------------------------------------------------------------

@main.group("mrowka")
def mrowka_group():
    """Almost disjoint families and the quotient semilattice."""


@mrowka_group.command("adcheck")
@click.argument("file", type=click.Path())
def mrowka_adcheck(file):
    """Pairwise almost-disjointness with residue certificates."""
    from .mrowka import ad_check, family_sets
    return ad_check(family_sets(load_json_file(file)))


@mrowka_group.command("star")
@click.argument("file", type=click.Path())
@click.argument("code_bound", type=NATURAL)
def mrowka_star(file, code_bound):
    """Finite-subset codes per branch and the intersection law."""
    from .mrowka import ADFamily, star_truncation
    fam = ADFamily.from_json(load_json_file(file))
    return star_truncation(fam, code_bound)[1]


@mrowka_group.command("join")
@click.argument("file", type=click.Path())
@click.argument("x")
@click.argument("y")
def mrowka_join(file, x, y):
    """Join of two points of the quotient semilattice."""
    from .mrowka import ADFamily, format_point, g_join, parse_point
    fam = ADFamily.from_json(load_json_file(file))
    return format_point(g_join(parse_point(x), parse_point(y), fam))


@mrowka_group.command("convergence")
@click.argument("file", type=click.Path())
@click.argument("i", type=NATURAL)
@click.argument("j", type=NATURAL)
@click.option("--horizon", type=NATURAL, default=128)
def mrowka_convergence(file, i, j, horizon):
    """Certify the escape threshold of joined prefix nets."""
    from .mrowka import ADFamily, check_horizon, convergence_check
    check_horizon(horizon)  # before the pairwise check of ADFamily
    return convergence_check(ADFamily.from_json(load_json_file(file)), i, j, horizon)


@mrowka_group.command("lusin")
@click.argument("file", type=click.Path())
@click.option("--steps", type=POSITIVE, default=1)
def mrowka_lusin(file, steps):
    """Iterate exact-count stages over a family file."""
    from .mrowka import ADFamily, check_lusin_picks, family_sets, lusin_iterate
    sets = family_sets(load_json_file(file))
    check_lusin_picks(len(sets), steps)  # before the pairwise check of ADFamily
    last = lusin_iterate(ADFamily(sets), steps)[-1]
    return CheckReport("lusin-stages", True, None, {
        "steps": steps, "final_m": last.m,
        "block_sizes": [len(b) for b in last.blocks],
        "l1_counts": [list(kv) for kv in last.l1_counts]})


@mrowka_group.command("selector")
@click.argument("file", type=click.Path())
@click.option("--bound", "truncation", type=NATURAL, default=64,
              help="truncation of the natural-number part")
def mrowka_selector(file, truncation):
    """Canonical selector conditions on the truncated family space."""
    from .mrowka import family_sets, mrowka_selector_check
    sets = family_sets(load_json_file(file))
    return mrowka_selector_check(sets, truncation)


# -- selftest ---------------------------------------------------------------------

@main.command("selftest")
@click.option("--seed", type=NATURAL, required=True, help="seed for the randomized suites")
@click.option("--criteria", default=None,
              help="comma-separated criterion numbers to run (default: all)")
def selftest(seed, criteria):
    """Run the acceptance battery; one line per criterion."""
    from .acceptance import run_all
    numbers = parse_naturals(criteria) if criteria is not None else None
    results = run_all(seed=seed, numbers=numbers)
    return [*(r.line() for r in results),
            CheckReport("selftest", all(r.passed for r in results),
                        [r.name for r in results if not r.passed] or None, {"seed": seed})]


if __name__ == "__main__":
    main()
