"""Command-line surface: compose velocities, shift star catalogs, render
cromlech diagrams, run the oracle verification suite, and scan the
velocity/menhir discrepancy.

Exit codes: 0 ok, 1 verification failure (a failed `verify` trial, or a
`compose` composite off its velocity model by more than rounding), 2 parse
error, 3 superluminal input, 4 I/O error, 5 unsupported rendering dimension.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import warnings
from itertools import compress

import click
import numpy as np
import orjson

from . import lorentz
from .algebra import (QUATERNION, RESIDUE_BOUND, Element, UnsupportedDimensionError,
                      algebra_for_dimension, vector_embed, vector_part)
from .calculus import (
    SuperluminalError,
    _check_ball,
    _compose,
    menhir_gap,
    menhir_of,
    refine_gap_argmax,
    velocity_of,
)
from .parsing import ElementParseError, format_element, parse_algebra_tag, parse_bracket, parse_element
from .reversions import (
    ConstructionError,
    ConstructionTrace,
    DegenerateConstructionWarning,
    _sphere_samples,
    apply_word,
    boost_star_shift,
    construct_composite_menhir,
    two_boost_fixed_points,
    two_boost_word,
)
from .svgplot import render_starfield
from .verify import CONFIGS, TIERS, aberration_spread, run_equivalence, trial_tolerance


#: a catalog row with |row|^2 below this is a zero direction, not a star
_ZERO_DIRECTION_SQ = 1e-24

#: orjson writes a float with |x| in [lo, hi) as repr does, and +-0.0 too;
#: below lo, from hi up and for nan and inf its notation differs (0.00001,
#: 1e16, null)
_ORJSON_AS_REPR = (1e-4, 1e16)


def _orjson_as_repr(x):
    """Whether orjson prints the float x, or each float of the array x, as
    repr does: |x| in `_ORJSON_AS_REPR`, or x = +-0.0 (0.0 and -0.0)."""
    lo, hi = _ORJSON_AS_REPR
    magnitude = abs(x)
    return ((magnitude >= lo) & (magnitude < hi)) | (magnitude == 0.0)


class OffModelError(ArithmeticError):
    """A composite leaves the velocity model by more than rounding."""


class _PlanarOnlyError(UnsupportedDimensionError):
    """A dimension the SVG renderer does not draw."""


#: exit code of each error a command reports on one `error:` line, a subclass before its parent
_EXIT_CODES = {OffModelError: 1, _PlanarOnlyError: 5, ElementParseError: 2,
               UnsupportedDimensionError: 2, SuperluminalError: 3, OSError: 4}


def _exit_codes(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except tuple(_EXIT_CODES) as exc:  # evaluated only when fn raises
            click.echo(f"error: {exc}", err=True)
            sys.exit(next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls)))

    return wrapper


def _quoting(**values):
    """Fill a command help's {name} fields with thresholds, written as 1e-9 (repr: 1e-09)."""
    def fill(fn):
        fn.__doc__ = fn.__doc__.format(**{k: repr(v).replace("e-0", "e-")
                                          for k, v in values.items()})
        return fn
    return fill


class _ParserOnceCommand(click.Command):
    """A command that builds its click option parser once, on its first
    request, and parses each request with a shallow copy of it: the copy
    takes the request's context, allow_interspersed_args and
    ignore_unknown_options, and shares the option tables, which a parse only
    reads.  The template is built again when the help option names change.
    Click's per-request build stays where the context sets a
    token_normalize_func, or where click's private parser lacks a member used
    here (click 9 drops `_OptionParser`).

    A token equal to a one-letter option (-a, -v, -w) is matched as that
    option at once: click tries every token as a long option first, and the
    miss builds a NoSuchOption (gettext and difflib).  Any other token
    (-a=complex, -acomplex) takes click's own path.

    `get_params` skips click's per-call scan for an option declared twice;
    tests/test_cli.py runs that check once per command."""

    #: (help option names, parser with no context) of the request that built it
    _template = (None, None)

    def get_params(self, ctx):
        help_option = self.get_help_option(ctx)
        return self.params if help_option is None else [*self.params, help_option]

    def make_parser(self, ctx):
        names, template = self._template
        if names != ctx.help_option_names or ctx.token_normalize_func:
            template = super().make_parser(ctx)
            if not _has_private_members(template):
                return template
            if ctx.token_normalize_func:
                return _short_first(template)
            template.ctx = None
            self._template = list(ctx.help_option_names), template
        # a shallow copy: object.__new__ and one dict update cost a fifth of copy.copy
        parser = object.__new__(type(template))
        parser.__dict__.update(vars(template), ctx=ctx,
                               allow_interspersed_args=ctx.allow_interspersed_args,
                               ignore_unknown_options=ctx.ignore_unknown_options)
        return _short_first(parser)


def _has_private_members(parser) -> bool:
    """Whether click's private parser has the members `_short_first` uses."""
    return (isinstance(getattr(parser, "_short_opt", None), dict)
            and callable(getattr(parser, "_match_short_opt", None))
            and callable(getattr(parser, "_process_opts", None)))


def _short_first(parser):
    """The parser, its `_process_opts` sending a token equal to a registered
    one-letter option straight to the short-option match."""
    short, match_short, process = parser._short_opt, parser._match_short_opt, parser._process_opts
    parser._process_opts = lambda arg, state: (match_short if arg in short else process)(arg, state)
    return parser


class _ParserOnceGroup(_ParserOnceCommand, click.Group):
    command_class = _ParserOnceCommand


@click.group(cls=_ParserOnceGroup)
def main():
    """Relativistic velocity composition through menhirs.

    Element grammar: rationals ("4/5"), decimals, and unit symbols i, j, k
    ("3i/5", "1/2+i/3"); Clifford vectors as bracketed component lists
    ("[0.1,0.2,0.3]").  Algebra tags: real, complex, quaternion, clifford<N>.
    """


def _vector(x, n: int, text: str) -> np.ndarray:
    """The n-vector that element x stands for; anything else is a parse error."""
    try:
        return vector_part(x, n, atol=0.0)
    except ValueError as exc:
        raise ElementParseError(f"{text!r} is not a {n}-vector velocity") from exc


def _parse_menhir(text: str, algebra):
    """The menhir of the velocity text; a speed of 1 or more is an error that
    quotes the text."""
    x = parse_element(text, algebra)
    if algebra.kind == "clifford":
        _vector(x, algebra.n_gen, text)
    return menhir_of(x, text)


def _on_model(composite: Element, alpha: Element) -> Element:
    """The composite menhir on the algebra's default vector model, its model
    slots bit for bit.  The part it leaves out is rounding residue, which
    grows like 1/|alpha|, alpha = 1 + e2 conj(e1): residue * |alpha| above
    RESIDUE_BOUND, or NaN, raises OffModelError, |alpha| computed only for a
    residue above it or NaN.  Its velocity, a positive multiple of it, is on
    the model too."""
    algebra = composite.algebra
    n = algebra.default_model_dim()
    vector, residue = algebra.model_split(composite.coeffs, n)
    if not residue <= RESIDUE_BOUND and not residue * alpha.norm() <= RESIDUE_BOUND:
        raise OffModelError(f"composite menhir is off the {n}-vector model by more "
                            f"than the rounding bound {RESIDUE_BOUND!r} / |alpha|")
    return vector_embed(vector, algebra)


def _rotation_payload(descriptor):
    if descriptor.algebra.kind in ("real", "complex"):
        return format_element(descriptor.rho())
    alpha = format_element(descriptor.alpha)
    # a rotor pair shares one element (see `calculus._compose`): one text
    beta = alpha if descriptor.beta is descriptor.alpha else format_element(descriptor.beta)
    return {"alpha": alpha, "beta": beta}


@main.command()
@click.option("-a", "--algebra", "tag", default="complex", show_default=True,
              help="Algebra tag: real, complex, quaternion, clifford<N>.")
@click.option("-v", "--velocity", "v_text", required=True, help="First boost velocity.")
@click.option("-w", "--second", "w_text", required=True, help="Second boost velocity.")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json",
              show_default=True)
@_exit_codes
@_quoting(bound=RESIDUE_BOUND)
def compose(tag, v_text, w_text, fmt):
    """Compose two boost velocities (first -v, then -w).

    JSON schema v1 keys: menhir_v, menhir_w, composite_menhir,
    composite_velocity, speed, rotation, angle_rad.

    When the Thomas pair is a rotor pair (Clifford vectors, imaginary
    quaternions), the composite menhir prints on the velocity model: its
    rounding residue off the model (at most {bound} / |alpha|, alpha as under
    `rotation`, else exit 1) is dropped, every model slot keeps its bits, and
    the composite velocity taken from it reads back as a velocity.  `speed`
    is the norm of the printed velocity.
    """
    algebra = parse_algebra_tag(tag)
    ev, ew = (_parse_menhir(text, algebra) for text in (v_text, w_text))
    composite, rotation = _compose(ev, ew)
    if rotation.beta is rotation.alpha:
        composite = _on_model(composite, rotation.alpha)
    u = velocity_of(composite)
    payload = {
        "menhir_v": format_element(ev),
        "menhir_w": format_element(ew),
        "composite_menhir": format_element(composite),
        "composite_velocity": format_element(u),
        "speed": u.norm(),
        "rotation": _rotation_payload(rotation),
        "angle_rad": rotation.angle(),
    }
    if fmt == "json":
        # element texts are ASCII with no quote or backslash: both writers
        # print them alike, and orjson's floats are repr's in its band
        if _orjson_as_repr(payload["speed"]) and _orjson_as_repr(payload["angle_rad"]):
            click.echo(orjson.dumps(payload, option=orjson.OPT_INDENT_2).decode())
        else:
            click.echo(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            click.echo(f"{key} = {value}")


def _parse_vector_velocity(text: str, n: int | None) -> np.ndarray:
    """Velocity as a plain vector inside the ball.  Bracketed text lists the
    components; bare element text is read in `algebra_for_dimension(n)`, and
    without n it is read once as a quaternion whose values pick the
    dimension: 2 (real, i) when j and k are zero, 3 (i, j, k) when the real
    part is zero, else 4."""
    if text.strip().startswith("["):
        v = parse_bracket(text)
        if n is not None and v.size != n:
            raise ElementParseError(f"expected {n} components, got {v.size}")
    elif n is None:
        c = parse_element(text, QUATERNION).coeffs
        v = c[:2] if not c[2:].any() else c[1:] if c[0] == 0.0 else c
    else:
        v = _vector(parse_element(text, algebra_for_dimension(n)), n, text)
    _check_ball(v, text)
    return v


def _is_number(field: str) -> bool:
    """Whether float() accepts the field.  No number starts with a letter other
    than the first letters of inf and nan, so such a field needs no call."""
    if field[:1].isalpha() and field[0] not in "iInN":
        return False
    try:
        float(field)
    except ValueError:
        return False
    return True


def _json_floats(text: str, count: int):
    """The count comma-separated numbers of text as float() reads them, in one
    orjson parse, or None where orjson's reading may differ.  Only a flat list
    of count floats is taken: then each comma separates two fields, and each
    field is one JSON number that orjson reads as a float (one with a fraction
    or an exponent, or an integer past 64 bits), with float()'s bits
    (tests/test_tolerances.py).  An integer within 64 bits reads as an int, -0
    as 0, and true, null, strings, lists and objects are no numbers."""
    try:
        numbers = orjson.loads("[" + text + "]")
    except orjson.JSONDecodeError:
        return None
    if len(numbers) != count or set(map(type, numbers)) != {float}:
        return None
    return numbers


def _read_catalog(path: str):
    """Labels and unit star directions of a catalog file, in the format the
    `aberrate` help gives.  The file is read at once, a leading byte-order
    mark skipped, and each row split once into its label and its number text.
    The numbers of all rows are read together: by one orjson parse where every
    field is a JSON number that orjson reads as a float, and by float() one
    field after another otherwise, with the same values bit for bit.  An error
    names the first bad row in file order, whether float() rejects one of its
    numbers or its direction is zero or non-finite.  A file that is not UTF-8,
    an empty catalog and rows of unequal length are errors too."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            # read() translates newlines as iterating the file does
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ElementParseError(f"{path}: not UTF-8 text") from exc
    # flat lists, no list per row: the garbage collector would scan a list per
    # row again and again on a large catalog
    line_nos, labels, bodies, widths = [], [], [], []
    for line_no, line in enumerate(text.split("\n"), 1):
        row = line.strip()
        if not row or row[0] == "#":
            continue
        head, _, tail = row.partition(",")
        labelled = not _is_number(head)
        line_nos.append(line_no)
        labels.append(head.strip() if labelled else f"star{len(labels)}")
        bodies.append(tail if labelled else row)  # the row's numbers, as text
        widths.append(row.count(",") + 1 - labelled)
    if not line_nos:
        raise ElementParseError(f"{path}: empty catalog")
    fields = ",".join(compress(bodies, widths))  # a row of a label alone adds no field
    count = sum(widths)
    widths = np.array(widths)
    numbers = _json_floats(fields, count)
    if numbers is None:
        values = fields.split(",") if count else []  # float() ignores the spaces around a number
        try:
            numbers = np.fromiter(map(float, values), float)
        except ValueError:
            # the rows before the first that float() rejects are still checked:
            # one of them may be the first bad row
            rejected = next(k for k, value in enumerate(values) if not _is_number(value))
            widths = widths[:np.searchsorted(np.cumsum(widths), rejected, side="right")]
            numbers = np.fromiter(map(float, values[:widths.sum()]), float)
    parsed = len(widths)
    width = widths.max(initial=0)
    stars = np.zeros((parsed, width))
    stars[np.arange(width) < widths[:, None]] = numbers
    # |row|^2 summed left to right, as sum(x * x for x in row) does; the zeros
    # that pad a short row add nothing
    squares = np.zeros(parsed)
    with np.errstate(over="ignore", invalid="ignore"):
        for column in stars.T:
            squares += column * column
        bad = np.flatnonzero(~((squares >= _ZERO_DIRECTION_SQ) & (squares < math.inf)))
    if bad.size:
        raise ElementParseError(f"{path}:{line_nos[bad[0]]}: direction must be finite and nonzero")
    if parsed < len(line_nos):
        raise ElementParseError(f"{path}:{line_nos[parsed]}: bad catalog row")
    if (widths != width).any():
        raise ElementParseError(f"{path}: inconsistent dimensions")
    # the stacked (1 x n)(n x 1) products take the dot of np.linalg.norm on one
    # row, so each unit row is bitwise the row-by-row one
    norms = np.sqrt((stars[:, None, :] @ stars[:, :, None]).ravel())
    return labels, stars / norms[:, None]


def _csv(header: str, labels, table: np.ndarray) -> str:
    """CSV text: the header line, then a line per row of the float table,
    its label first unless labels is None, every number as repr writes it.
    orjson prints the whole table at once; a row holding a number that
    orjson prints otherwise (`_orjson_as_repr`) is joined from repr instead."""
    table = np.ascontiguousarray(table, dtype=float)
    outside = ~_orjson_as_repr(table).all(axis=1)
    # "[[x,y],[z,w]]" -> "x,y", "z,w"
    text = orjson.dumps(table, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].decode()
    rows = text.split("],[") if len(table) else []
    for i in np.flatnonzero(outside).tolist():
        rows[i] = ",".join(map(repr, table[i].tolist()))
    if labels is not None:
        rows = map(",".join, zip(labels, rows))
    return "\n".join([header, *rows]) + "\n"


def _shift_table(labels, stars: np.ndarray, shifted: np.ndarray) -> str:
    """CSV schema v1: label, in_1..in_n, out_1..out_n."""
    n = stars.shape[1]
    columns = [f"in_{k+1}" for k in range(n)] + [f"out_{k+1}" for k in range(n)]
    return _csv(",".join(["label"] + columns), labels, np.hstack([stars, shifted]))


def _write(out_path: str, text: str):
    """Command output to the file out_path, or to stdout for '-'."""
    if out_path == "-":
        click.echo(text, nl=False)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


@main.command()
@click.option("-v", "--velocity", "v_text", required=True, help="Boost velocity.")
@click.option("--catalog", "catalog_path", required=True, type=click.Path(),
              help="Star catalog, UTF-8 text with one star a row: [label,]x1,...,xn, where a "
                   "first field that is not a number is a label. '#' lines and blank lines are "
                   "skipped and rows are normalised; an error names file:line of the first bad "
                   "row (exit 2).")
@click.option("--out", "out_path", required=True, type=click.Path(), help="Output CSV path ('-' for stdout).")
@click.option("--debug", is_flag=True, help="Cross-check the shift three ways and report the spread.")
@_exit_codes
def aberrate(v_text, catalog_path, out_path, debug):
    """Shift a star catalog under a boost.

    CSV schema v1 columns: label, in_1..in_n, out_1..out_n.
    """
    labels, stars = _read_catalog(catalog_path)
    n = stars.shape[1]
    v = _parse_vector_velocity(v_text, n)
    shifted = boost_star_shift(stars, v)
    if debug:
        spread = aberration_spread(v, stars, algebra_for_dimension(n))
        click.echo(f"max cross-discrepancy (word/moebius/oracle): {spread:.3e}", err=True)
    _write(out_path, _shift_table(labels, stars, shifted))


def _starfield_points(n: int, count: int) -> np.ndarray:
    if n == 2:
        angles = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
        return np.column_stack([np.cos(angles), np.sin(angles)])
    return _sphere_samples(n, count)


def _two_boost_overlays(ev: np.ndarray, ew: np.ndarray):
    """Fixed points and construction trace of the planar two-boost map.  An
    overlay that cannot be drawn in full is reported on stderr; what was built
    of the construction is kept."""
    fixed, trace = (), ConstructionTrace()
    try:
        fixed = two_boost_fixed_points(ev, ew)
    except ConstructionError as exc:
        click.echo(f"warning: fixed points overlay omitted ({exc})", err=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegenerateConstructionWarning)
        try:
            construct_composite_menhir(ev, ew, trace)
        except ConstructionError as exc:
            click.echo(f"warning: construction overlay omitted ({exc})", err=True)
        except DegenerateConstructionWarning as exc:
            # collinear menhirs fall back before drawing, so nothing is lost
            if trace.points:
                click.echo(f"warning: construction overlay incomplete ({exc.reason})", err=True)
    return fixed, trace


@main.command()
@click.option("-v", "--velocity", "v_text", required=True, help="First boost velocity.")
@click.option("--w", "w_text", default=None, help="Optional second boost velocity (two-boost mode).")
@click.option("--count", default=12, show_default=True, type=click.IntRange(min=2),
              help="Number of star stones.")
@click.option("--format", "fmt", type=click.Choice(["svg", "csv"]), default="svg", show_default=True)
@click.option("--out", "out_path", default="-", show_default=True, type=click.Path())
@_exit_codes
def starfield(v_text, w_text, count, fmt, out_path):
    """Render the star shift on the cromlech (SVG for the planar case).

    CSV schema v1 columns: label, in_1..in_n, out_1..out_n.
    """
    v = _parse_vector_velocity(v_text, None)
    n = v.size
    w = None if w_text is None else _parse_vector_velocity(w_text, n)
    if fmt == "svg" and n != 2:
        raise _PlanarOnlyError(f"SVG rendering supports only the planar case, got dimension {n}")

    stars = _starfield_points(n, count)
    menhirs = [menhir_of(x) for x in (v, w) if x is not None]
    shifted = boost_star_shift(stars, v) if w is None else apply_word(stars, two_boost_word(*menhirs))
    if fmt == "svg":
        overlays = () if w is None else _two_boost_overlays(*menhirs)
        text = render_starfield(stars, shifted, menhirs, *overlays)
    else:
        text = _shift_table([f"star{i}" for i in range(count)], stars, shifted)
    _write(out_path, text)


@main.command()
@click.option("--trials", default=1000, show_default=True, type=click.IntRange(min=1),
              help="Trials per configuration.")
@click.option("--seed", default=42, show_default=True, type=click.IntRange(min=0),
              help="Master seed; trial i draws from default_rng([seed, i]).")
@click.option("-a", "--algebra", "key", default="all", show_default=True,
              type=click.Choice(["all", *CONFIGS]), help="Verification lane.")
@click.option("--tier", type=click.Choice(["normal", "stress"]), default="normal", show_default=True)
@_exit_codes
@_quoting(normal=TIERS["normal"][2], stress=TIERS["stress"][2])
def verify(trials, seed, key, tier):
    """Check the menhir calculus against the Lorentz-matrix oracle.

    Tolerance: {normal} (normal), {stress} (stress); the MENHIR_TOLERANCE
    environment variable overrides it with a finite number >= 0.  A trial fails unless
    both of its errors are within the tolerance.  Exit code 1 when any trial
    fails.
    """
    tolerance = None
    env = os.environ.get("MENHIR_TOLERANCE")
    if env:
        try:
            tolerance = trial_tolerance(tier, float(env))
        except ValueError:
            raise click.UsageError(f"MENHIR_TOLERANCE={env!r} is not a finite number >= 0") from None
    bits = int(np.finfo(lorentz.SPLIT_DTYPE).nmant)
    if bits < lorentz.EXTENDED_MANTISSA_BITS:
        click.echo(f"note: no extended long double here; the oracle splits with {bits} "
                   f"mantissa bits, not {lorentz.EXTENDED_MANTISSA_BITS}", err=True)

    keys = list(CONFIGS) if key == "all" else [key]
    any_failures = False
    for k in keys:
        report = run_equivalence(k, trials, seed, tier, tolerance)
        status = "ok" if report.ok else "FAIL"
        click.echo(
            f"{k:<13} trials={report.trials} tier={tier} "
            f"max_velocity_error={report.max_velocity_error:.3e} "
            f"max_rotation_error={report.max_rotation_error:.3e} "
            f"failures={len(report.failures)} {status}"
        )
        for (master, index), inputs, errors in report.failures[:10]:
            click.echo(f"  failing seed {master} trial {index}: {inputs} -> {errors}", err=True)
        any_failures = any_failures or not report.ok
    if any_failures:
        sys.exit(1)


@main.command()
@click.option("--steps", default=1000, show_default=True, type=click.IntRange(min=100),
              help="Grid steps over [0, 1].")
@click.option("--out", "out_path", default="-", show_default=True, type=click.Path())
@_exit_codes
def goldenscan(steps, out_path):
    """Scan the discrepancy between a speed and its menhir.

    Emits CSV (v, menhir, gap) and reports the refined argmax and the v:menhir
    ratio there (the golden section of the segment, fittingly).
    """
    grid = np.linspace(0.0, 1.0, steps + 1)
    gaps = menhir_gap(grid)
    _write(out_path, _csv("v,menhir,gap", None, np.column_stack([grid, grid - gaps, gaps])))

    v_star = refine_gap_argmax()
    gap = float(menhir_gap(v_star))
    e_star = v_star - gap
    click.echo(f"argmax v = {v_star!r}", err=True)
    click.echo(f"menhir e = {e_star!r}", err=True)
    click.echo(f"gap v-e  = {gap!r}", err=True)
    click.echo(f"ratio v:e = {v_star / e_star!r}", err=True)


if __name__ == "__main__":
    main()
