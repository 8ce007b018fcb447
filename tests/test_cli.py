import codecs
import collections
import itertools
import json
import math
import struct
import warnings
import xml.etree.ElementTree as ET

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from menhir import calculus, cli, lorentz
from menhir.algebra import COMPLEX, QUATERNION, RESIDUE_BOUND, Algebra, Element, vector_embed
from menhir.calculus import RotationDescriptor, _compose, compose_menhirs, menhir_gap, menhir_of, velocity_of
from menhir.cli import (_ORJSON_AS_REPR, OffModelError, _csv, _on_model, _orjson_as_repr, _read_catalog,
                        _shift_table, main)
from menhir.lorentz import axis_projection_shift, composition_split
from menhir.parsing import ElementParseError, parse_algebra_tag, parse_element
from menhir.reversions import DegenerateConstructionWarning, apply_word, boost_star_shift, two_boost_word
from menhir.svgplot import render_starfield
from menhir.verify import TIERS

from util import (ball_vector, max_diff, needs_extended_split, reference_format_element,
                  reference_mul_coeffs, reference_read_catalog, reference_shift_table, unit_vector)


@pytest.fixture
def runner():
    return CliRunner()


def _one_error_line(result, exit_code, message="error: "):
    """A command error: the exit code, no output and one stderr line that
    starts with the message."""
    assert result.exit_code == exit_code, (result.output, result.exception)
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message), lines


def test_compose_worked_example(runner):
    result = runner.invoke(main, ["compose", "-a", "complex", "-v", "4/5", "-w", "3i/5"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["menhir_v"] == "1/2"
    assert payload["composite_menhir"] == "20/37+9/37i"
    assert payload["composite_velocity"] == "4/5+9/25i"
    assert payload["rotation"] == "35/37+12/37i"
    assert payload["angle_rad"] == pytest.approx(math.acos(35 / 37), abs=1e-12)
    assert payload["speed"] == pytest.approx(math.sqrt(481) / 25, abs=1e-12)


@pytest.mark.parametrize("command, constants", [
    ("compose", [RESIDUE_BOUND]),
    ("verify", [TIERS["normal"][2], TIERS["stress"][2]]),
])
def test_help_quotes_each_threshold_from_its_constant(runner, command, constants):
    # the repr, written 1e-9 where repr writes 1e-09, reads back bit for bit
    text = " ".join(runner.invoke(main, [command, "--help"]).output.split())
    for value in constants:
        quoted = repr(value).replace("e-0", "e-")
        assert quoted in text and float(quoted) == value


def test_compose_json_round_trip(runner):
    result = runner.invoke(main, ["compose", "-a", "complex", "-v", "0.31+0.17i", "-w", "-0.44i"])
    payload = json.loads(result.output)
    reparsed = parse_element(payload["composite_velocity"], COMPLEX)
    remenhir = menhir_of(reparsed)
    stated = parse_element(payload["composite_menhir"], COMPLEX)
    assert max_diff(remenhir, stated) <= 1e-12


@pytest.mark.parametrize("args", [
    ["-a", "complex", "-v", "4/5", "-w", "3i/5"],
    ["-a", "clifford3", "-v", "[0.1,0.2,0.3]", "-w", "[-0.3,0.1,0.2]"],
])
def test_compose_text_lines_carry_the_json_values(runner, args):
    as_json = runner.invoke(main, ["compose", *args])
    as_text = runner.invoke(main, ["compose", *args, "--format", "text"])
    assert as_json.exit_code == as_text.exit_code == 0
    payload = json.loads(as_json.stdout)
    assert as_text.stdout.splitlines() == [f"{key} = {value}" for key, value in payload.items()]


def test_compose_real_case(runner):
    result = runner.invoke(main, ["compose", "-a", "real", "-v", "0.5", "-w", "0.5"])
    payload = json.loads(result.output)
    assert payload["composite_velocity"] == "4/5"
    assert payload["angle_rad"] == 0.0


def test_compose_quaternion_has_sandwich_pair(runner):
    result = runner.invoke(main, ["compose", "-a", "quaternion", "-v", "0.5i", "-w", "0.5j"])
    payload = json.loads(result.output)
    assert set(payload["rotation"]) == {"alpha", "beta"}
    # velocity and angle must match the Lorentz oracle
    rotation, u = composition_split([0.5, 0, 0], [0, 0.5, 0])
    oracle_angle = math.acos((np.trace(rotation) - 1) / 2)
    assert payload["angle_rad"] == pytest.approx(oracle_angle, abs=1e-12)
    from menhir.algebra import QUATERNION, vector_part

    parsed = parse_element(payload["composite_velocity"], QUATERNION)
    assert np.abs(vector_part(parsed, 3, RESIDUE_BOUND) - u).max() <= 1e-12


def test_compose_exit_codes(runner):
    _one_error_line(runner.invoke(main, ["compose", "-a", "complex", "-v", "abc", "-w", "0"]), 2)
    _one_error_line(runner.invoke(main, ["compose", "-a", "nope", "-v", "0", "-w", "0"]), 2)
    _one_error_line(runner.invoke(main, ["compose", "-a", "complex", "-v", "1.5", "-w", "0"]), 3)
    # clifford velocities must be grade-1 vectors, even in dense-blade form
    _one_error_line(runner.invoke(
        main, ["compose", "-a", "clifford2", "-v", "[0.5,0,0,0.2]", "-w", "[0,0.5,0,0]"]
    ), 2)
    assert runner.invoke(
        main, ["compose", "-a", "clifford2", "-v", "[0,0.5,0.2,0]", "-w", "[0.1,0]"]
    ).exit_code == 0
    # non-finite numbers, zero denominators and what float() alone reads
    # (underscores, a signed denominator, non-ASCII digits) are parse errors
    for tag, text in (("clifford2", "[nan,0]"), ("clifford2", "[inf,0]"),
                      ("complex", "1/0"), ("complex", "[1/0,0]"), ("clifford2", "[0.1_0,0]"),
                      ("clifford2", "[-1/-2,0]"), ("complex", "\u0665"), ("clifford2", "[\u0661,0]")):
        result = runner.invoke(main, ["compose", "-a", tag, "-v", text, "-w", "0"])
        assert result.exit_code == 2, (tag, text, result.output)


def test_huge_velocity_is_one_clean_error(runner, tmp_path):
    # |v| overflows a sum of squares; the speed check must still see a finite
    # huge norm and report it once, with no numpy warning on stderr (warnings
    # are recorded, not printed, under pytest, so they are raised here)
    catalog = tmp_path / "stars.csv"
    catalog.write_text("a,1,0,0\n")
    cases = (
        ["compose", "-a", "clifford2", "-v", "[1e200,0]", "-w", "[0,0]"],
        ["compose", "-a", "complex", "-v", "1e200", "-w", "0"],
        ["compose", "-a", "quaternion", "-v", "1e200i", "-w", "0"],
        ["aberrate", "-v", "[1e200,0,0]", "--catalog", str(catalog), "--out", "-"],
    )
    for args in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, args)
        _one_error_line(result, 3)


# floats a user could type: NaN, inf, zero, subnormals and values near +-1
_TYPED_FLOATS = st.one_of(
    st.floats(),
    st.floats(min_value=-1.0 - 1e-9, max_value=-1.0 + 1e-9),
    st.floats(min_value=1.0 - 1e-9, max_value=1.0 + 1e-9),
)


@settings(max_examples=150, deadline=None)
@given(x=_TYPED_FLOATS, y=_TYPED_FLOATS)
def test_compose_never_leaks_a_traceback(x, y):
    runner = CliRunner()
    for tag, v_text, w_text in (("clifford2", f"[{x!r},{y!r}]", "[0.1,0.2]"),
                                ("complex", f"{x!r}/{y!r}", "1/3")):
        result = runner.invoke(main, ["compose", "-a", tag, "-v", v_text, "-w", w_text])
        assert result.exit_code in (0, 2, 3), (tag, v_text, result.output)
        assert result.exception is None or isinstance(result.exception, SystemExit)


def test_compose_deterministic(runner):
    args = ["compose", "-a", "complex", "-v", "0.31+0.17i", "-w", "-0.44i"]
    assert runner.invoke(main, args).output == runner.invoke(main, args).output


def _model_mask(algebra, model_dim):
    """Slots of the model_dim-vector model, listed blade by blade: the grade-1
    blades of a Clifford algebra, i j k of the imaginary quaternions, every
    slot of the other models."""
    if algebra.kind == "clifford":
        return np.array([bin(k).count("1") == 1 for k in range(algebra.dim)])
    if algebra.kind == "quaternion" and model_dim == 3:
        return np.array([False, True, True, True])
    return np.ones(algebra.dim, dtype=bool)


def _on_mask(x, mask):
    """x with the slots outside mask dropped; each dropped slot must be
    rounding residue, and each kept slot keeps its bits."""
    assert np.abs(x.coeffs[~mask]).max(initial=0.0) <= 1e-15, x
    kept = np.zeros(x.coeffs.size)
    for k in np.flatnonzero(mask).tolist():
        kept[k] = x.coeffs[k]
    assert kept[mask].tobytes() == x.coeffs[mask].tobytes()
    return Element(x.algebra, kept)


def _reference_compose_json(tag, v_text, w_text, model_dim):
    """The compose JSON rebuilt with the Thomas pair as two products (one
    element passed twice when they have the same bits), every product by the
    blade-by-blade loop, every norm by `math.hypot` of all
    slots and every element through `reference_format_element`, so that a
    fault in the product kernel or the norm cannot move the reference.  The
    composite menhir and velocity print on the slots of the model_dim model."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Algebra, "mul_coeffs", reference_mul_coeffs)
        patch.setattr(Element, "norm", lambda x: math.hypot(*x.coeffs.tolist()))
        algebra = parse_algebra_tag(tag)
        ev = menhir_of(parse_element(v_text, algebra))
        ew = menhir_of(parse_element(w_text, algebra))
        composite = compose_menhirs(ev, ew)
        u = velocity_of(composite)
        mask = _model_mask(algebra, model_dim)
        composite, u = _on_mask(composite, mask), _on_mask(u, mask)
        alpha, beta = 1.0 + ew * ev.conjugate(), 1.0 + ew.conjugate() * ev
        if alpha.coeffs.tobytes() == beta.coeffs.tobytes():
            beta = alpha
        rotation = RotationDescriptor(alpha, beta)
        if algebra.kind in ("real", "complex"):
            rotation_text = reference_format_element(rotation.rho())
        else:
            rotation_text = {"alpha": reference_format_element(rotation.alpha),
                             "beta": reference_format_element(rotation.beta)}
        payload = {
            "menhir_v": reference_format_element(ev),
            "menhir_w": reference_format_element(ew),
            "composite_menhir": reference_format_element(composite),
            "composite_velocity": reference_format_element(u),
            "speed": u.norm(),
            "rotation": rotation_text,
            "angle_rad": rotation.angle(),
        }
        return json.dumps(payload, indent=2) + "\n"


def _velocity_text(tag, v):
    """Velocity text exact to the last bit, as the benchmark's requests write it."""
    if tag.startswith("clifford"):
        return "[" + ",".join(map(repr, v)) + "]"
    units = {"real": [""], "complex": ["", "i"], "quaternion": ["i", "j", "k"]}[tag]
    return "".join(f"{x:+}{unit}" if k else f"{x!r}{unit}" for k, (x, unit) in enumerate(zip(v, units)))


def _compose_cases():
    # the README's examples, a 4-D quaternion pair, requests whose speed or
    # angle lies below _ORJSON_AS_REPR (written by json.dumps) and whose angle
    # is 0.0 (a real and a collinear pair, written by orjson), then seeded
    # requests of every algebra the benchmark cycles through, and of clifford6
    # and clifford8 on either side of algebra._SPARSE_DIM
    cases = [("complex", "4/5", "3i/5", 2), ("quaternion", "0.5i", "0.5j", 3),
             ("clifford4", "[0.5,0,0,0]", "[0,0.5,0,0]", 4), ("real", "1/2", "-1/3", 1),
             ("quaternion", "0.1+0.5i", "0.5j-0.2k", 4), ("quaternion", "1e-13+0.5i", "0.3j", 4),
             ("complex", "1e-5", "1e-5i", 2), ("clifford3", "[1e-5,0,0]", "[0,1e-5,0]", 3),
             ("complex", "0.5", "1e-5i", 2), ("quaternion", "0.5i", "1e-5j", 3),
             ("real", "0.5", "0.5", 1), ("complex", "0.3i", "-0.6i", 2)]
    rng = np.random.default_rng(88)
    for tag, n in (("real", 1), ("complex", 2), ("quaternion", 3), ("clifford3", 3),
                   ("clifford5", 5), ("clifford10", 10), ("clifford6", 6), ("clifford8", 8)):
        for _ in range(2 if n == 10 else 6):
            v, w = (ball_vector(rng, n, 0.0, 0.95).tolist() for _ in range(2))
            cases.append((tag, _velocity_text(tag, v), _velocity_text(tag, w), n))
    return cases


@pytest.mark.parametrize("tag,v_text,w_text,model_dim", _compose_cases())
def test_compose_bytes_match_the_reference(runner, tag, v_text, w_text, model_dim):
    result = runner.invoke(main, ["compose", "-a", tag, "-v", v_text, "-w", w_text])
    assert result.exit_code == 0, result.output
    assert result.output == _reference_compose_json(tag, v_text, w_text, model_dim)


def test_compose_cases_take_both_json_writers(runner):
    # a payload whose floats orjson prints as repr does is written by orjson,
    # any other by json.dumps: the byte reference above must see both
    in_band = set()
    for tag, v_text, w_text, _ in _compose_cases():
        payload = json.loads(runner.invoke(main, ["compose", "-a", tag, "-v", v_text, "-w", w_text]).stdout)
        in_band.add(bool(_orjson_as_repr(payload["speed"]) and _orjson_as_repr(payload["angle_rad"])))
    assert in_band == {True, False}


_COMPOSE_EXAMPLE = ["-v", "4/5", "-w", "3i/5"]
_SHORT_SPELLING = {"compose": ["compose", "-a", "complex", *_COMPOSE_EXAMPLE],
                   "verify": ["verify", "-a", "real", "--trials", "1"]}


# argv, exit code, stderr, NoSuchOption errors built on the way
_SPELLINGS = [
    (_SHORT_SPELLING["compose"], 0, "", 0),
    (["compose", "--algebra", "complex", *_COMPOSE_EXAMPLE], 0, "", 0),
    (["compose", "--algebra=complex", *_COMPOSE_EXAMPLE], 0, "", 0),
    (["compose", "-acomplex", *_COMPOSE_EXAMPLE], 0, "", 1),
    (_SHORT_SPELLING["verify"], 0, "", 0),
    (["verify", "--algebra", "real", "--trials", "1"], 0, "", 0),
    (["verify", "--algebra=real", "--trials", "1"], 0, "", 0),
    (["compose", "-a"], 2, "Error: Option '-a' requires an argument.\n", 0),
    (["compose", "-a=complex", *_COMPOSE_EXAMPLE], 2,
     "error: unknown algebra tag '=complex'; use real, complex, quaternion or clifford<N>\n", 1),
    (["compose", "-x", "1"], 2,
     "Usage: main compose [OPTIONS]\nTry 'main compose --help' for help.\n\n"
     "Error: No such option '-x'.\n", 2),
]


def _outcome(runner, monkeypatch, argv, **extra):
    """(exit code, stdout, stderr, NoSuchOption errors built) of one request."""
    built = []
    init = click.exceptions.NoSuchOption.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(click.exceptions.NoSuchOption, "__init__", counting_init)
        result = runner.invoke(main, argv, **extra)
    return result.exit_code, result.stdout, result.stderr, len(built)


@pytest.mark.parametrize("argv, exit_code, stderr, misses", _SPELLINGS,
                         ids=[" ".join(case[0]) for case in _SPELLINGS])
def test_option_spellings_keep_their_outcome(runner, monkeypatch, argv, exit_code, stderr, misses):
    # a token equal to a one-letter option (-a, -v, -w) is matched with no
    # NoSuchOption built
    code, stdout, err, built = _outcome(runner, monkeypatch, argv)
    assert (code, err, built) == (exit_code, stderr, misses)
    if exit_code == 0:
        assert stdout == runner.invoke(main, _SHORT_SPELLING[argv[0]]).stdout


class _OpaqueParser:
    """A parser with none of click's private members that the CLI reaches
    into: only what `click.Command.parse_args` reads."""

    def __init__(self, parser):
        self.parse_args, self._opt_prefixes = parser.parse_args, parser._opt_prefixes


def test_parser_reuse_keeps_every_outcome(runner, monkeypatch):
    """Each command builds its parser once and copies it per request; no
    context a request brings (order, resilient parsing, program name, help
    option names, a token normaliser) changes another request's outcome, and
    the per-request build where click's parser is opaque keeps the bytes."""
    first = [_outcome(runner, monkeypatch, argv) for argv, *_ in _SPELLINGS]
    assert [outcome[0::2] for outcome in first] == [(code, stderr) for _, code, stderr, _ in _SPELLINGS]
    assert [outcome[3] for outcome in first] == [misses for *_, misses in _SPELLINGS]
    again = [_outcome(runner, monkeypatch, argv) for argv, *_ in reversed(_SPELLINGS)]
    assert again[::-1] == first

    unknown = ["compose", "-x", "1"]
    expected = first[[argv for argv, *_ in _SPELLINGS].index(unknown)]
    compose = main.commands["compose"]
    ctx = main.make_context("main", unknown, resilient_parsing=True)
    compose.make_context("compose", unknown[1:], parent=ctx, resilient_parsing=True)  # raises nothing
    assert _outcome(runner, monkeypatch, unknown) == expected
    renamed = _outcome(runner, monkeypatch, unknown, prog_name="menhir")
    assert renamed[2].startswith("Usage: menhir compose [OPTIONS]\nTry 'menhir compose --help'")
    assert renamed[2].replace("menhir compose", "main compose") == expected[2]
    assert _outcome(runner, monkeypatch, unknown) == expected

    # a context setting that reaches the parser: click's own per-request
    # build gives the same bytes, and the next plain request is unchanged
    for extra in ({"help_option_names": []}, {"allow_interspersed_args": True},
                  {"ignore_unknown_options": True}, {"token_normalize_func": str.upper}):
        for argv in (_SHORT_SPELLING["compose"], ["compose", "--help"], ["-x", *unknown], ["compose", "-X", "1"]):
            with monkeypatch.context() as patch:
                patch.setattr(cli._ParserOnceCommand, "make_parser", click.Command.make_parser)
                patch.setattr(cli._ParserOnceCommand, "get_params", click.Command.get_params)
                clicks = _outcome(runner, monkeypatch, argv, **extra)
            assert _outcome(runner, monkeypatch, argv, **extra)[:3] == clicks[:3], (extra, argv)
            assert _outcome(runner, monkeypatch, unknown) == expected

    # two requests, two parsers over the same option tables
    made, make_parser = [], cli._ParserOnceCommand.make_parser

    def recording(self, ctx):
        made.append(make_parser(self, ctx))
        return made[-1]

    with monkeypatch.context() as patch:
        patch.setattr(cli._ParserOnceCommand, "make_parser", recording)
        for _ in range(2):
            runner.invoke(main, _SHORT_SPELLING["compose"])
    assert len(made) == 4 and made[1] is not made[3] and made[1].ctx is not made[3].ctx
    assert made[1]._long_opt is made[3]._long_opt and "--velocity" in made[1]._long_opt

    # where click's parser lacks the private members, a parser per request
    built, build = [], click.Command.make_parser

    def opaque(self, ctx):
        built.append(self.name)
        return _OpaqueParser(build(self, ctx))

    with monkeypatch.context() as patch:
        patch.setattr(click.Command, "make_parser", opaque)
        for command in (main, *main.commands.values()):
            patch.setattr(command, "_template", (None, None))
        for _ in range(2):
            fallback = [_outcome(runner, monkeypatch, argv) for argv, *_ in _SPELLINGS]
            assert [outcome[:3] for outcome in fallback] == [outcome[:3] for outcome in first]
    assert built.count("compose") == 2 * sum(argv[0] == "compose" for argv, *_ in _SPELLINGS)


def _declared_twice(command):
    """The option strings that the command, its help option included,
    declares more than once."""
    params = [*command.params, command.get_help_option(click.Context(command))]
    opts = collections.Counter(opt for param in params if param is not None
                               for opt in (*param.opts, *param.secondary_opts))
    return sorted(opt for opt, count in opts.items() if count > 1)


def test_no_option_is_declared_twice():
    """Once for every command, the scan click's get_params ran on each call."""
    assert sorted(main.commands) == ["aberrate", "compose", "goldenscan", "starfield", "verify"]
    for command in (main, *main.commands.values()):
        assert _declared_twice(command) == [], command.name
    scratch = click.Command("scratch", params=[click.Option(["-v", "--velocity"]), click.Option(["-v"])])
    assert _declared_twice(scratch) == ["-v"]


def test_compose_checks_each_velocity_once(runner, monkeypatch):
    """A request runs the ball check three times: on its two velocities and
    on the composite menhir; the superluminal error quotes the text given."""
    checked, check = [], calculus._check_ball

    def counting(x, what):
        checked.append(what)
        return check(x, what)

    for module in (calculus, cli):
        monkeypatch.setattr(module, "_check_ball", counting)
    ten = "[" + ",".join(["0.1"] * 10) + "]"
    for argv in (["-a", "complex", *_COMPOSE_EXAMPLE], ["-a", "clifford10", "-v", ten, "-w", ten]):
        checked.clear()
        assert runner.invoke(main, ["compose", *argv]).exit_code == 0
        assert len(checked) == 3, checked
    result = runner.invoke(main, ["compose", "-v", "0", "-w", "3/5+4i/5"])
    _one_error_line(result, 3)
    assert result.stderr == "error: |3/5+4i/5| = 1.0 is not strictly below 1\n"


def _off_model_slots(text, algebra):
    x = parse_element(text, algebra)
    return np.count_nonzero(np.delete(x.coeffs, algebra.model_indices(algebra.default_model_dim())))


@pytest.mark.parametrize("tag,n", [("real", 1), ("complex", 2), ("quaternion", 3)]
                         + [(f"clifford{n}", n) for n in (2, 3, 4, 5, 6, 8, 10)])
def test_compose_composite_reads_back_as_a_velocity(runner, tag, n):
    # seeded pairs of the benchmark's speeds, then pairs with |v| within 1e-6
    # to 1e-9 of the light cone (w stays normal, so the composite is still
    # below the 1 - 1e-12 that an input must be)
    algebra = parse_algebra_tag(tag)
    rng = np.random.default_rng([14, n, len(tag)])
    pairs = [(ball_vector(rng, n, 0.0, 0.95), ball_vector(rng, n, 0.0, 0.95)) for _ in range(8)]
    pairs += [(ball_vector(rng, n, 1 - 1e-6, 1 - 1e-9), ball_vector(rng, n, 0.0, 0.95)) for _ in range(4)]
    for v, w in pairs:
        w_text = _velocity_text(tag, w.tolist())
        args = ["compose", "-a", tag, "-v", _velocity_text(tag, v.tolist()), "-w", w_text]
        for _ in range(2):  # the request, then its composite velocity fed back as -v
            result = runner.invoke(main, args)
            assert result.exit_code == 0, (args, result.output)
            payload = json.loads(result.output)
            for key in ("composite_menhir", "composite_velocity"):
                assert _off_model_slots(payload[key], algebra) == 0, (args, payload[key])
            if tag == "quaternion" or algebra.kind == "clifford":
                # imaginary inputs again: the pair stays a rotor pair
                assert payload["rotation"]["beta"] == payload["rotation"]["alpha"], args
            args = ["compose", "-a", tag, "-v", payload["composite_velocity"], "-w", w_text]


def test_compose_off_model_composite_is_one_clean_error(runner, monkeypatch):
    # a scalar part of 1e-6 or 1e-9 leaves the vector model by far more than
    # rounding: exit 1, one error line and no output; 5e-13 is rounding and
    # is dropped.  The composite comes from the route that also gives the
    # Thomas pair, which stays as it is
    def skewed(scalar):
        def route(e1, e2):
            composite, rotation = _compose(e1, e2)
            return composite + scalar, rotation
        return route

    cases = (("clifford3", "[0.1,0.2,0.3]", "[0.3,-0.2,0.1]"), ("quaternion", "0.5i", "0.5j"))
    for (tag, v_text, w_text), skew in itertools.product(cases, (1e-6, 1e-9)):
        args = ["compose", "-a", tag, "-v", v_text, "-w", w_text]
        monkeypatch.setattr("menhir.cli._compose", skewed(skew))
        _one_error_line(runner.invoke(main, args), 1, "error: composite menhir is off the")
        monkeypatch.setattr("menhir.cli._compose", skewed(5e-13))
        result = runner.invoke(main, args)
        assert result.exit_code == 0, (tag, result.output)
        monkeypatch.undo()
        assert result.output == runner.invoke(main, args).output


def test_nan_off_the_model_is_off_the_model():
    # NaN > RESIDUE_BOUND is false, so the bound is tested as `not <=`
    with pytest.raises(OffModelError):
        _on_model(QUATERNION.element([math.nan, 0.1, 0.2, 0.3]), QUATERNION.one)


def test_compose_near_the_edge_sizes_the_residue_by_alpha(runner):
    """Nearly opposite boosts at |v| = |w| = 1 - 2e-12: the composite menhir's
    residue off the model grows like 1/|alpha| and passes RESIDUE_BOUND, but
    residue * |alpha| stays within it.  Such requests, and their composite
    velocities fed back as -v, exit 0 on the velocity model."""
    speed = 1.0 - 2e-12
    rng = np.random.default_rng(17)
    cases = [("clifford5",
              [-0.664223361297312, -0.207390019913198, -0.424769648401527, -0.351111713107536,
               0.460530147394106],
              [0.664218782980509, 0.207390282080974, 0.424777510758802, 0.351108085693546,
               -0.460532146266071])]
    for tag, n in (("clifford3", 3), ("clifford5", 5), ("quaternion", 3)):
        for angle in (1e-5, 1e-6):
            for _ in range(4):
                d = unit_vector(rng, n)
                d2 = -(d + angle * unit_vector(rng, n))
                cases.append((tag, (d * speed).tolist(), (d2 * (speed / np.linalg.norm(d2))).tolist()))
    over = 0
    for tag, v, w in cases:
        algebra = parse_algebra_tag(tag)
        ev, ew = (menhir_of(vector_embed(np.array(x), algebra)) for x in (v, w))
        off = compose_menhirs(ev, ew).coeffs.copy()
        off[algebra.model_indices(algebra.default_model_dim())] = 0.0
        over += np.abs(off).max() > RESIDUE_BOUND
        args = ["compose", "-a", tag, "-v", _velocity_text(tag, v), "-w", _velocity_text(tag, w)]
        for _ in range(2):  # the request, then its composite velocity fed back as -v
            result = runner.invoke(main, args)
            assert result.exit_code == 0, (args, result.output)
            text = json.loads(result.stdout)["composite_velocity"]
            assert _off_model_slots(text, algebra) == 0, (args, text)
            args[4] = text
    assert over >= 5  # the raw residue alone would refuse these


def test_compose_takes_the_model_of_the_pair(runner):
    # a real part of 1e-13 makes a 4-D quaternion pair: its angle is the
    # rotor alpha's, on the 50-digit value
    result = runner.invoke(main, ["compose", "-a", "quaternion", "-v", "1e-13+0.5i", "-w", "0.3j"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["angle_rad"] == 0.08223331986751783


def test_aberrate(runner, tmp_path):
    catalog = tmp_path / "stars.csv"
    catalog.write_text("north,0,1\nfront,1,0\nback,-1,0\n")
    out = tmp_path / "out.csv"
    result = runner.invoke(
        main, ["aberrate", "-v", "4/5", "--catalog", str(catalog), "--out", str(out), "--debug"]
    )
    assert result.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "label,in_1,in_2,out_1,out_2"
    north = lines[1].split(",")
    assert float(north[3]) == pytest.approx(0.8, abs=1e-12)
    front = lines[2].split(",")
    assert float(front[3]) == pytest.approx(1.0, abs=1e-12)
    back = lines[3].split(",")
    assert float(back[3]) == pytest.approx(-1.0, abs=1e-12)


def test_aberrate_zero_velocity_is_identity(runner, tmp_path):
    catalog = tmp_path / "stars.csv"
    catalog.write_text("0.6,0.8\n-0.28,0.96\n")
    out = tmp_path / "out.csv"
    assert runner.invoke(
        main, ["aberrate", "-v", "0", "--catalog", str(catalog), "--out", str(out)]
    ).exit_code == 0
    for line in out.read_text().strip().splitlines()[1:]:
        fields = [float(x) for x in line.split(",")[1:]]
        assert fields[:2] == fields[2:]


def test_aberrate_circle_follows_projection_rule(runner, tmp_path):
    catalog = tmp_path / "stars.csv"
    rows = []
    for k in range(12):
        theta = 2 * math.pi * k / 12
        rows.append(f"s{k},{math.cos(theta)},{math.sin(theta)}")
    catalog.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out.csv"
    assert runner.invoke(
        main, ["aberrate", "-v", "4/5", "--catalog", str(catalog), "--out", str(out)]
    ).exit_code == 0
    for line in out.read_text().strip().splitlines()[1:]:
        _, x, y, xs, ys = line.split(",")
        assert float(xs) == pytest.approx(axis_projection_shift(float(x), 0.8), abs=1e-12)


def test_aberrate_one_dimensional_catalog(runner, tmp_path):
    # on a 1-sphere the only stars are the front and back ones; both stay put
    catalog = tmp_path / "stars.csv"
    catalog.write_text("front,1\nback,-1\n")
    out = tmp_path / "out.csv"
    assert runner.invoke(
        main, ["aberrate", "-v", "0.9", "--catalog", str(catalog), "--out", str(out)]
    ).exit_code == 0
    lines = out.read_text().strip().splitlines()
    for line, target in ((lines[1], 1.0), (lines[2], -1.0)):
        _, before, after = line.split(",")
        assert float(before) == target
        assert float(after) == pytest.approx(target, abs=1e-12)


def test_aberrate_element_text_velocity_in_higher_dimensions(runner, tmp_path):
    # bare element text is read in the catalog dimension's algebra
    rng = np.random.default_rng(12)
    for n in (3, 5):
        rows = rng.standard_normal((4, n)).tolist()
        (tmp_path / f"stars{n}.csv").write_text("".join(",".join(map(repr, r)) + "\n" for r in rows))

    def run(v, n):
        return runner.invoke(main, ["aberrate", "-v", v, "--catalog", str(tmp_path / f"stars{n}.csv"),
                                    "--out", "-"])

    by_text, by_list = run("0.3i+0.2j-0.5k", 3), run("[0.3,0.2,-0.5]", 3)
    assert by_text.exit_code == by_list.exit_code == 0
    assert by_text.stdout == by_list.stdout
    for v, n, message in (("[0.3,0.2]", 3, "expected 3 components, got 2"),
                          ("0.3", 5, "'0.3' is not a 5-vector velocity")):
        result = run(v, n)
        assert result.exit_code == 2 and message in result.stderr


def test_catalog_errors_name_the_first_bad_row(runner, tmp_path):
    catalog = tmp_path / "stars.csv"
    cases = (
        ("# head\n1,0\n\n0,0\nq,1,x\n", "stars.csv:4: direction must be finite and nonzero"),
        ("1,0\nq,1,x\n0,0\n", "stars.csv:2: bad catalog row"),
        ("1,0\n1,2,3\n1e200,0\n", "stars.csv:3: direction must be finite and nonzero"),
        ("1,0\n1,2,3\n", "stars.csv: inconsistent dimensions"),
        ("# nothing\n", "stars.csv: empty catalog"),
    )
    for rows, message in cases:
        catalog.write_text(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, ["aberrate", "-v", "0.5", "--catalog", str(catalog), "--out", "-"])
        assert result.exit_code == 2, (rows, result.exception)
        assert result.stderr.strip().endswith(message), (rows, result.stderr)


def test_catalog_that_is_not_utf8_is_one_clean_error(runner, tmp_path):
    catalog = tmp_path / "stars.csv"
    catalog.write_bytes(b"s1,0.5,\xff\xfe,0.1\n")
    result = runner.invoke(main, ["aberrate", "-v", "0.5", "--catalog", str(catalog), "--out", "-"])
    assert result.exit_code == 2, result.exception
    assert result.stderr == f"error: {catalog}: not UTF-8 text\n"


def test_catalog_byte_order_mark_is_skipped(runner, tmp_path):
    """Excel's "CSV UTF-8" starts the file with a byte-order mark: the catalog
    reads and shifts as the same file without it, labelled or not."""
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    for text in ("0.6,0.8\n-0.28,0.96\n", "north,0.6,0.8\nsouth,-0.28,0.96\n"):
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        for reader in (_read_catalog, reference_read_catalog):
            assert _read_outcome(reader, str(marked)) == _read_outcome(reader, str(plain)), text
        shifted = [runner.invoke(main, ["aberrate", "-v", "0.5", "--catalog", str(path), "--out", "-"])
                   for path in (plain, marked)]
        assert shifted[0].exit_code == shifted[1].exit_code == 0, shifted[1].stderr
        assert shifted[1].stdout == shifted[0].stdout


# fields on either side of the border between what orjson reads as float()
# does (JSON numbers with a fraction or an exponent) and what only float()
# reads (JSON integers, which lose the sign of -0, and +1, .5, 1., 01, 1e400)
# or nothing reads (true, null, brackets, quotes, braces)
_JSON_BORDER = ["-0", "0", "1", "+1", ".5", "1.", "01", "1E5", "1e400", "-1e400", "1e-400",
                "2.4703282292062328e-324", "18446744073709551616", "9007199254740993",
                "true", "null", "[1", "2]", "],[", '"1"', "{}",
                "1.234567890123456789012345678901234567890e-3"]
# catalog fields: mostly plain nonzero numbers; now and then one that float()
# reads (nan, inf, huge, zero, subnormal, with underscores or non-ASCII digits),
# text it rejects, one of the JSON border, any float, or a float near the 1e-24
# limit of |row|^2
_PLAIN_NUMBERS = st.floats(min_value=0.1, max_value=2.0) | st.floats(min_value=-2.0, max_value=-0.1)
_EDGE_NUMBERS = st.one_of(
    st.sampled_from(["nan", "-inf", "inf", "1e200", "-1e200", "0", "-0.0", "5e-324",
                     "1e-310", "1_0", "\u0663", "x", ""] + _JSON_BORDER),
    st.floats(),
    st.floats(min_value=5e-13, max_value=2e-12),
)
# first fields that are labels and first fields that are numbers
_CATALOG_LABELS = st.sampled_from(["inf", "Nunki", "\uff49", "\u0663", "izar", "", "nan",
                                   "1_0", "Infinity", "NaN", "s0"] + _JSON_BORDER)


@st.composite
def _catalog_text(draw):
    """Catalog file text: mostly rows of one width, some ragged; labelled and
    unlabelled rows, comments and blank lines, spaces around fields, LF and
    CRLF line ends."""
    width = draw(st.integers(1, 3))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row", "row", "row", "comment", "blank"]))
        if kind == "comment":
            line = draw(st.sampled_from(["# stars", "  #,1,2", "#"]))
        elif kind == "blank":
            line = draw(st.sampled_from(["", "  ", "\t"]))
        else:
            n = width if draw(st.integers(0, 4)) else draw(st.integers(0, 4))
            fields = [str(draw(_EDGE_NUMBERS if draw(st.integers(0, 3)) == 0 else _PLAIN_NUMBERS))
                      for _ in range(n)]
            if draw(st.booleans()):
                fields.insert(0, draw(_CATALOG_LABELS))
            line = ",".join(draw(st.sampled_from(["", " ", "\t "])) + f
                            + draw(st.sampled_from(["", " "])) for f in fields)
        lines.append(line + draw(st.sampled_from(["\n", "\r\n"])))
    return "".join(lines)


def _read_outcome(reader, path):
    try:
        labels, stars = reader(path)
    except ElementParseError as exc:
        return str(exc)
    return labels, stars.shape, stars.tobytes()


@settings(max_examples=400, deadline=None)
@given(text=_catalog_text())
# |row|^2 of the first row is 1e-24 summed left to right and one ulp less
# summed right to left; the second row the other way round
@example(text="3.10024609160108e-13,6.801580225835288e-13,6.642814208077674e-13\n")
@example(text="2.0233523534326242e-13,6.63115706929897e-13,7.206511026574853e-13\n")
def test_catalog_reader_matches_the_row_reader(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "property_catalog.csv"
    path.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _read_outcome(_read_catalog, str(path))
    assert got == _read_outcome(reference_read_catalog, str(path)), text


def test_aberrate_output_is_the_row_reader_shift(runner, tmp_path):
    rng = np.random.default_rng(2024)
    stars = rng.standard_normal((300, 3)) * rng.uniform(1e-3, 1e3, (300, 1))
    lines = ["# seeded catalog"]
    for k, row in enumerate(stars.tolist()):
        lines.append((f"s{k}, " if k % 3 else "") + ", ".join(map(repr, row)))
    catalog = tmp_path / "stars.csv"
    catalog.write_bytes(("\r\n".join(lines) + "\r\n").encode("utf-8"))
    out = tmp_path / "out.csv"
    result = runner.invoke(
        main, ["aberrate", "-v", "[0.3,-0.2,0.5]", "--catalog", str(catalog), "--out", str(out)])
    assert result.exit_code == 0, result.output
    labels, unit = reference_read_catalog(str(catalog))
    shifted = boost_star_shift(unit, np.array([0.3, -0.2, 0.5]))
    assert out.read_bytes() == reference_shift_table(labels, unit, shifted).encode("utf-8")


def _bit_pattern(k: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", k))[0]


# each end of _ORJSON_AS_REPR and its neighbours, both signs
_NOTATION_EDGES = [sign * x for bound in _ORJSON_AS_REPR for sign in (1.0, -1.0)
                   for x in (math.nextafter(bound, 0.0), bound, math.nextafter(bound, math.inf))]
_csv_numbers = st.one_of(
    st.integers(0, 2**64 - 1).map(_bit_pattern),
    st.sampled_from(_NOTATION_EDGES + [0.0, -0.0, math.nan, math.inf, -math.inf]),
    st.floats(-1.0, 1.0),  # unit-row components
)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 5), data=st.data())
def test_table_writer_matches_the_repr_join(n, data):
    rows = data.draw(st.lists(st.lists(_csv_numbers, min_size=2 * n, max_size=2 * n),
                              min_size=1, max_size=6))
    table = np.array(rows)
    stars, shifted = table[:, :n], table[:, n:]
    if data.draw(st.booleans(), label="labelled"):
        labels = [f"s{i}" for i in range(len(rows))]
        assert _shift_table(labels, stars, shifted) == reference_shift_table(labels, stars, shifted)
    else:
        # the reference with empty labels, their column dropped
        expected = reference_shift_table([""] * len(rows), stars, shifted)
        header, *lines = [line.partition(",")[2] for line in expected.splitlines()]
        assert _csv(header, None, table) == "\n".join([header, *lines]) + "\n"


@pytest.mark.parametrize("text", ["[0.1,,0.2]", "[0.1,0.2,]", "[,0.1,0.2]", "[]"])
@pytest.mark.parametrize("command", ["compose", "aberrate", "starfield"])
def test_empty_bracket_components_are_parse_errors(runner, tmp_path, command, text):
    catalog = tmp_path / "stars.csv"
    catalog.write_text("a,1,0\n")
    args = {
        "compose": ["compose", "-a", "clifford2", "-v", text, "-w", "[0,0]"],
        "aberrate": ["aberrate", "-v", text, "--catalog", str(catalog), "--out", "-"],
        "starfield": ["starfield", "-v", text, "--format", "csv"],
    }[command]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert repr(text) in result.stderr


def test_unusable_input_writes_nothing(runner, tmp_path):
    good = tmp_path / "good.csv"
    good.write_text("0,1\n1,0\n")
    cases = [("0.5", "nan,0\n1,0\n"), ("0.5", "a,inf,0\n"), ("[nan,0]", None)]
    for v_text, rows in cases:
        catalog = good
        if rows is not None:
            catalog = tmp_path / "bad.csv"
            catalog.write_text(rows)
        out = tmp_path / "out.csv"
        result = runner.invoke(
            main, ["aberrate", "-v", v_text, "--catalog", str(catalog), "--out", str(out)]
        )
        assert result.exit_code == 2, (v_text, rows, result.output)
        assert not out.exists()
    out = tmp_path / "sky.csv"
    for v_text in ("[nan,0]", "[]"):
        result = runner.invoke(main, ["starfield", "-v", v_text, "--format", "csv", "--out", str(out)])
        assert result.exit_code == 2, (v_text, result.output)
        assert not out.exists()


def test_aberrate_io_error(runner, tmp_path):
    result = runner.invoke(
        main, ["aberrate", "-v", "0.5", "--catalog", str(tmp_path / "missing.csv"), "--out", "-"]
    )
    _one_error_line(result, 4)


def test_starfield_svg(runner):
    result = runner.invoke(main, ["starfield", "-v", "4/5", "--count", "12"])
    assert result.exit_code == 0
    root = ET.fromstring(result.output)
    assert root.tag.endswith("svg")
    # every plotted point stays inside the declared viewBox
    for el in root.iter():
        if el.tag.endswith("circle"):
            assert 0.0 <= float(el.get("cx")) <= 512.0
            assert 0.0 <= float(el.get("cy")) <= 512.0
    # hollow before-stones and filled after-stones, one pair per star
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    hollow = [c for c in circles if c.get("fill") == "white"]
    filled = [c for c in circles if c.get("fill") == "black"]
    assert len(hollow) == 12 and len(filled) == 12


def test_render_starfield_rejects_unmatched_points():
    before = [[1.0, 0.0], [0.0, 1.0]]
    for after in ([[1.0, 0.0]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]):
        with pytest.raises(ValueError, match="matching lists of planar points"):
            render_starfield(before, after)
    # empty star lists are no stars: the plain cromlech; an empty row or an
    # empty batch of 3-D points is still no list of planar points
    plain = render_starfield(np.zeros((0, 2)), np.zeros((0, 2)))
    assert render_starfield([], []) == render_starfield([], np.zeros((0, 2))) == plain
    assert plain.count("<circle") == 1  # the cromlech alone
    for empty in ([[]], np.zeros((0, 3))):
        with pytest.raises(ValueError, match="matching lists of planar points"):
            render_starfield(empty, empty)


def test_starfield_side_star_projection(runner):
    result = runner.invoke(main, ["starfield", "-v", "4/5", "--count", "4", "--format", "csv"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    # star1 is (0, 1): its image must sit at axis projection 4/5
    star1 = lines[2].split(",")
    assert float(star1[3]) == pytest.approx(0.8, abs=1e-12)


def test_starfield_zero_velocity_pairs_coincide(runner):
    result = runner.invoke(main, ["starfield", "-v", "0", "--count", "4", "--format", "csv"])
    for line in result.output.strip().splitlines()[1:]:
        fields = [float(x) for x in line.split(",")[1:]]
        assert fields[:2] == fields[2:]


def test_starfield_reads_a_zero_unit_as_zero(runner):
    # the values pick the dimension, so a j or k term that is zero leaves a
    # planar velocity: the CSV of the text without it
    cases = (("0.5+0j", "0.5"), ("0.1+0.2i+0k", "0.1+0.2i"))
    for text, plain in cases:
        result = runner.invoke(main, ["starfield", "-v", text, "--format", "csv"])
        assert result.exit_code == 0, (text, result.output)
        assert result.output == runner.invoke(main, ["starfield", "-v", plain, "--format", "csv"]).output


def test_starfield_two_boost_mode(runner):
    result = runner.invoke(
        main, ["starfield", "-v", "1/2", "--w", "i/3", "--count", "8"]
    )
    assert result.exit_code == 0
    root = ET.fromstring(result.output)
    crosses = [el for el in root.iter() if el.tag.endswith("path") and el.get("stroke") == "#06c"]
    assert len(crosses) == 2
    # the two fixed points are rendered non-antipodally
    centers = []
    for el in crosses:
        # path is "M x-5 y H x+5 M x y-5 V y+5"
        parts = el.get("d").split()
        centers.append(np.array([float(parts[6]), float(parts[2])]) - 256.0)
    assert np.linalg.norm(centers[0] + centers[1]) > 10.0
    texts = {el.text for el in root.iter() if el.tag.endswith("text")}
    assert "e[+]f" in texts  # construction trace is rendered


def _warnings_and_svg(result):
    assert result.exit_code == 0, result.output
    root = ET.fromstring(result.stdout)
    assert root.tag.endswith("svg")
    lines = result.stderr.splitlines()
    assert all(line.startswith("warning: ") for line in lines)
    texts = {el.text for el in root.iter() if el.tag.endswith("text")}
    return lines, texts


def test_starfield_two_boost_overlay_warnings(runner, monkeypatch):
    # boost then its inverse: every circle point is fixed, so there are no two
    # fixed points to mark; the collinear construction draws nothing and so
    # drops nothing
    lines, _ = _warnings_and_svg(
        runner.invoke(main, ["starfield", "-v", "0.5", "--w", "-0.5", "--count", "8"])
    )
    assert len(lines) == 1 and "fixed points overlay omitted" in lines[0]
    # non-collinear, nearly opposite boosts: near the light cone the
    # fixed-point discriminant rounds to <= 0, and the construction stops too
    lines, _ = _warnings_and_svg(runner.invoke(main, [
        "starfield", "-v", "[-0.6731065092663897,0.7395455544721489]",
        "--w", "[0.6731065092673464,-0.7395455544712781]"]))
    assert len(lines) == 2
    assert "fixed points overlay omitted" in lines[0] and "construction overlay omitted" in lines[1]
    # collinear boosts: both fixed points exist and nothing is dropped
    lines, _ = _warnings_and_svg(
        runner.invoke(main, ["starfield", "-v", "0.5", "--w", "0.3", "--count", "8"])
    )
    assert lines == []

    # a fallback after the construction began keeps what it drew and names why
    def partial(e, f, trace):
        trace.point("A", np.array([1.0, 0.0]))
        warnings.warn(DegenerateConstructionWarning("parallel chords"))

    monkeypatch.setattr("menhir.cli.construct_composite_menhir", partial)
    lines, texts = _warnings_and_svg(
        runner.invoke(main, ["starfield", "-v", "1/2", "--w", "i/3", "--count", "8"])
    )
    assert lines == ["warning: construction overlay incomplete (parallel chords)"]
    assert "A" in texts and "e[+]f" not in texts


def test_starfield_csv_builds_no_overlay(runner, monkeypatch):
    # CSV shows no overlay: it warns about none, and builds none
    result = runner.invoke(main, ["starfield", "-v", "0.5", "--w", "-0.5", "--format", "csv"])
    assert result.exit_code == 0 and result.stderr == "", result.output

    def refuse(*args):
        raise AssertionError("an overlay was built")

    monkeypatch.setattr("menhir.cli.two_boost_fixed_points", refuse)
    monkeypatch.setattr("menhir.cli.construct_composite_menhir", refuse)
    for v, w in (("1/2", "i/3"), ("[-0.6731065092663897,0.7395455544721489]",
                                  "[0.6731065092673464,-0.7395455544712781]")):
        result = runner.invoke(main, ["starfield", "-v", v, "--w", w, "--format", "csv"])
        assert result.exit_code == 0 and result.stderr == "", (v, w, result.output)
        assert len(result.stdout.splitlines()) == 13


def test_starfield_small_second_boost_falls_back(runner):
    # chords that cross at a sine of at most 1e-6 give no meet: the overlay
    # keeps what was drawn, warns once, and leaves out the composite menhir
    lines, texts = _warnings_and_svg(
        runner.invoke(main, ["starfield", "-v", "[0.1,0.7]", "--w", "[1e-6,2e-6]"])
    )
    assert lines == ["warning: construction overlay incomplete (parallel chords)"]
    assert "A" in texts and "e[+]f" not in texts


def test_starfield_two_boosts_near_the_edge(runner):
    # |v| = 1 - 1e-11 along the antipode of a star: that star's image after
    # the origin and the menhir is off the circle by more than UNIT_ATOL, but
    # the word checks its stars once, on entry, so the next letters take it
    result = runner.invoke(main, ["starfield", "-v", "[0.4999999999950001,-0.8660254037757783]",
                                  "--w", "0.5i", "--format", "csv"])
    assert result.exit_code == 0, result.output
    assert result.stderr == ""
    rows = np.array([[float(x) for x in line.split(",")[1:]]
                     for line in result.stdout.splitlines()[1:]])
    assert rows.shape == (12, 4)
    assert np.abs(np.linalg.norm(rows[:, 2:], axis=1) - 1.0).max() <= 1e-8


@pytest.mark.parametrize("v, w, count, sphere", [
    ([0.5, 0.0], [0.0, 1 / 3], 12, 2e-15),
    ([0.4, -0.3], [-0.2, 0.6], 16, 2e-15),
    ([0.9, 0.0], [0.0, 0.99], 24, 5e-15),
    ([0.3, 0.3], [-0.6, 0.2], 64, 2.5e-15),
    ([0.1, 0.2, 0.3], [0.4, -0.2, 0.1], 64, 3.5e-15),
    ([0.0, 0.0, 0.9], [0.95, 0.0, 0.0], 32, 2e-15),
    ([0.3, -0.1, 0.2, 0.5], [0.1, 0.6, -0.2, 0.3], 32, 2e-15),
])
def test_starfield_two_boosts_are_the_two_letter_word(runner, v, w, count, sphere):
    """The CSV rows are `apply_word(stars, two_boost_word(e, f))` bit for bit.
    The four-letter word (origin, e, origin, f) of the same boosts lands
    within 1e-13 of them.  The rows leave the unit sphere by at most
    `sphere`, 2e-15 or the case's measured gap (2.4e-15, 3.3e-15, 4.7e-15)
    rounded up; the four-letter word leaves it by 6e-15 to 2.6e-14."""
    def text(x):
        return "[" + ",".join(map(repr, x)) + "]"

    result = runner.invoke(main, ["starfield", "-v", text(v), "--w", text(w), "--count", str(count),
                                  "--format", "csv"])
    assert result.exit_code == 0, result.output
    rows = np.array([[float(x) for x in line.split(",")[1:]] for line in result.stdout.splitlines()[1:]])
    n = len(v)
    stars, shifted = rows[:, :n], rows[:, n:]
    e, f = menhir_of(np.array(v)), menhir_of(np.array(w))
    assert np.array_equal(shifted, apply_word(stars, two_boost_word(e, f)))
    four_letters = apply_word(stars, [np.zeros(n), e, np.zeros(n), f])
    assert np.abs(shifted - four_letters).max() <= 1e-13
    assert np.abs(np.linalg.norm(shifted, axis=1) - 1.0).max() <= sphere


def test_starfield_unsupported_dimension(runner, monkeypatch):
    message = "error: SVG rendering supports only the planar case, got dimension 3"
    result = runner.invoke(
        main, ["starfield", "-v", "[0.1,0.2,0.3]", "--format", "svg"]
    )
    _one_error_line(result, 5, message)
    assert runner.invoke(
        main, ["starfield", "-v", "[0.1,0.2,0.3]", "--format", "csv"]
    ).exit_code == 0
    # a superluminal second boost is read, and reported, first
    _one_error_line(runner.invoke(main, ["starfield", "-v", "[0.1,0.2,0.3]", "--w", "[2,0,0]"]), 3)

    # the dimension is refused before any star is shifted
    def refuse(*args):
        raise AssertionError("a star was shifted")

    monkeypatch.setattr("menhir.cli.boost_star_shift", refuse)
    monkeypatch.setattr("menhir.cli.apply_word", refuse)
    for extra in ([], ["--w", "[0.3,0.2,0.1]"]):
        _one_error_line(runner.invoke(main, ["starfield", "-v", "[0.1,0.2,0.3]", *extra]), 5, message)


def test_starfield_determinism(runner):
    args = ["starfield", "-v", "0.3+0.2i", "--count", "9"]
    assert runner.invoke(main, args).output == runner.invoke(main, args).output


def test_verify_ok(runner):
    result = runner.invoke(main, ["verify", "--trials", "25", "--seed", "42", "-a", "complex"])
    assert result.exit_code == 0
    assert "failures=0" in result.output


@needs_extended_split
def test_verify_names_a_double_precision_oracle(runner, monkeypatch):
    """Where long double is double (MSVC, macOS arm64) the oracle splits in
    float64, and `verify` says so in one stderr line; with an extended long
    double it says nothing.  The pinned stress key passes the tier either way."""
    args = ["verify", "--trials", "41", "--seed", "1765266107", "-a", "quaternion", "--tier", "stress"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0 and result.stderr == ""
    monkeypatch.setattr(lorentz, "SPLIT_DTYPE", np.float64)
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert result.stderr == "note: no extended long double here; the oracle splits with 52 mantissa bits, not 63\n"


def test_verify_rejects_zero_trials(runner):
    assert runner.invoke(main, ["verify", "--trials", "0"]).exit_code == 2
    assert runner.invoke(main, ["verify", "--trials", "1", "--seed", "-5"]).exit_code == 2


def test_verify_tolerance_env_failure(runner):
    result = runner.invoke(
        main,
        ["verify", "--trials", "5", "-a", "complex"],
        env={"MENHIR_TOLERANCE": "1e-30"},
    )
    assert result.exit_code == 1
    assert "failing seed" in result.output or "FAIL" in result.output


def test_verify_rejects_tolerances_that_judge_nothing(runner):
    for bad in ("nan", "inf", "-1", "one"):
        result = runner.invoke(main, ["verify", "--trials", "5", "-a", "complex"],
                               env={"MENHIR_TOLERANCE": bad})
        assert result.exit_code == 2, (bad, result.output)
        assert result.output.count("Error: MENHIR_TOLERANCE=") == 1


def test_goldenscan(runner, tmp_path):
    out = tmp_path / "scan.csv"
    result = runner.invoke(main, ["goldenscan", "--steps", "250", "--out", str(out)])
    assert result.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "v,menhir,gap"
    assert len(lines) == 252
    first = [float(x) for x in lines[1].split(",")]
    last = [float(x) for x in lines[-1].split(",")]
    assert first == [0.0, 0.0, 0.0]
    assert last[2] == pytest.approx(0.0, abs=1e-12)  # endpoints coincide
    # the lines as first written, one repr per number
    grid = np.linspace(0.0, 1.0, 251)
    assert lines[1:] == [f"{float(v)!r},{float(v - gap)!r},{float(gap)!r}"
                         for v, gap in zip(grid, menhir_gap(grid))]
    assert "ratio v:e = 1.618033988749894" in result.output


def test_goldenscan_rejects_small_grids(runner):
    assert runner.invoke(main, ["goldenscan", "--steps", "99"]).exit_code == 2


def test_csv_outputs_are_byte_deterministic(runner, tmp_path):
    catalog = tmp_path / "stars.csv"
    catalog.write_text("0.6,0.8\n-1,0\n0.28,-0.96\n")
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert runner.invoke(
            main, ["aberrate", "-v", "0.37+0.11i", "--catalog", str(catalog), "--out", str(out)]
        ).exit_code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]

    scans = [runner.invoke(main, ["goldenscan", "--steps", "120"]).output for _ in range(2)]
    assert scans[0] == scans[1]
