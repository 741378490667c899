"""Source-level checks on the library itself."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hdx"
TESTS = Path(__file__).resolve().parent


def test_library_checks_survive_optimised_mode():
    # python -O strips assert statements, so a library check must raise
    paths = sorted(SRC.glob("*.py"))
    assert paths
    offenders = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    offenders.append(f"{path.name}:{node.lineno} raise AssertionError")
            elif isinstance(node, ast.Assert):
                offenders.append(f"{path.name}:{node.lineno} assert")
    assert offenders == []


# subgroup generating sets come from cochains.subgroup_generators alone, and
# every library reader of delta takes its sparse rows or the coface table: the
# dense delta_matrix is read only by the matrix-complex identity check, and the
# modular echelon forms build no dense matrix
GENERATOR_CALLS = {"image_basis_int", "kernel_int", "kernel_mod_p"}
GENERATOR_HOMES = {"cochains.py", "intmat.py"}
DENSE_DELTA_READERS = {"verify.py:check_matrix_complex_identity"}
DENSE_HELPERS = {"dense_rows", "transpose", "zeros"}
SPARSE_MOD_P = ("rref_mod_p", "kernel_mod_p")


def _callee(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


class _Calls(ast.NodeVisitor):
    """Every call of a module with the name of its enclosing function."""

    def __init__(self):
        self.scope = ["<module>"]
        self.calls = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        self.calls.append((self.scope[-1], node))
        self.generic_visit(node)


def test_subgroup_generating_sets_have_one_home():
    offenders, dense_readers = [], set()
    for path in sorted(SRC.glob("*.py")):
        visitor = _Calls()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        for scope, call in visitor.calls:
            name = _callee(call)
            transposed_delta = (
                name == "transpose" and call.args
                and isinstance(call.args[0], ast.Call)
                and _callee(call.args[0]) == "delta_matrix"
            )
            if transposed_delta or (name in GENERATOR_CALLS
                                    and path.name not in GENERATOR_HOMES):
                offenders.append(f"{path.name}:{call.lineno} {name} in {scope}")
            if name == "delta_matrix":
                dense_readers.add(f"{path.name}:{scope}")
    assert offenders == []
    assert dense_readers == DENSE_DELTA_READERS
    source = (SRC / "intmat.py").read_text(encoding="utf-8")
    for name in SPARSE_MOD_P:
        assert _reached(source, name) & DENSE_HELPERS == set(), name



# the candidate cap has one setting, HDX_CAP: no function takes a cap or one of
# the retired search knobs, and config.candidate_cap is read only where a search
# compares a size against it, once per search
RETIRED_KNOBS = {"cap", "face_cap", "max_vertices", "max_steps", "int_low", "int_high"}
CAP_SITES = [
    "cosets.combinations",
    "expansion._integer_coboundary_scan",
    "expansion._subgroup_scan",
    "expansion._supports_up_to_norm",
    "expansion.small_set_check",
]


def _knob_parameters(source):
    """name(parameter) per def, nested ones too, with a parameter in RETIRED_KNOBS."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs
            params += [p for p in (a.vararg, a.kwarg) if p]
            out += [f"{node.name}({p.arg})" for p in params if p.arg in RETIRED_KNOBS]
    return out


def _cap_reads(stem, source):
    """module.function per candidate_cap call, named by the innermost def."""
    visitor = _Calls()
    visitor.visit(ast.parse(source))
    return [f"{stem}.{scope}" for scope, call in visitor.calls
            if _callee(call) == "candidate_cap"]


def test_knob_and_cap_read_finders():
    source = """
from . import config


def scan(X, cap=None):
    return config.candidate_cap(cap)


def build(n, *, face_cap=400):
    def rec(i, max_steps):
        return config.candidate_cap() > i
    return rec(n, 1)


def walk(f, steps, **int_high):
    return f
"""
    assert _knob_parameters(source) == [
        "scan(cap)", "build(face_cap)", "walk(int_high)", "rec(max_steps)",
    ]
    assert _cap_reads("m", source) == ["m.scan", "m.rec"]


def test_the_cap_is_read_only_where_a_search_is_sized():
    knobs, reads = [], []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        knobs += [f"{path.stem}.{k}" for k in _knob_parameters(source)]
        reads += _cap_reads(path.stem, source)
    assert knobs == []
    assert sorted(reads) == CAP_SITES


# intmat computes in exact Python ints: it imports the standard library and
# hdx.errors only, never numpy or another hdx layer
def _foreign_imports(source):
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out += [a.name for a in node.names
                    if a.name.split(".")[0] not in sys.stdlib_module_names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                if node.module != "errors":
                    out.append("." * node.level + (node.module or ""))
            elif node.module.split(".")[0] not in sys.stdlib_module_names:
                out.append(node.module)
    return out


def test_foreign_import_finder_flags_numpy_and_other_layers():
    source = """
from __future__ import annotations
import math
from fractions import Fraction
from .errors import PropertyViolation
import numpy as np
from numpy.linalg import det
from .cochains import delta_matrix
from . import gf
import hdx.rings


def f():
    import scipy
"""
    assert _foreign_imports(source) == [
        "numpy", "numpy.linalg", ".cochains", ".", "hdx.rings", "scipy",
    ]


def test_intmat_imports_only_the_standard_library_and_errors():
    assert _foreign_imports((SRC / "intmat.py").read_text(encoding="utf-8")) == []


# apartment membership is answered by the packed uint64 words of
# building._apartment_words alone, never by asking each apartment; membership
# of an apartment intersection A_{sigma,tau} is read off those words by
# building._in_intersections alone (see test_apartment_intersections_have_one_reader)
class _ApartmentScans(_Calls):
    """has_face calls and `in` tests inside a loop or comprehension over an
    `apartments` attribute."""

    def __init__(self):
        super().__init__()
        self.open_scans = 0
        self.hits = []

    def _loop(self, node, iterables):
        over = any(
            isinstance(n, ast.Attribute) and n.attr == "apartments"
            for it in iterables for n in ast.walk(it)
        )
        self.open_scans += over
        self.generic_visit(node)
        self.open_scans -= over

    def visit_For(self, node):
        self._loop(node, [node.iter])

    def visit_ListComp(self, node):
        self._loop(node, [gen.iter for gen in node.generators])

    visit_SetComp = visit_GeneratorExp = visit_DictComp = visit_ListComp

    def visit_Call(self, node):
        if self.open_scans and _callee(node) == "has_face":
            self.hits.append(self.scope[-1])
        super().visit_Call(node)

    def visit_Compare(self, node):
        if self.open_scans and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops):
            self.hits.append(self.scope[-1])
        self.generic_visit(node)


def _apartment_scans(source):
    visitor = _ApartmentScans()
    visitor.visit(ast.parse(source))
    return visitor.hits


def test_apartment_scan_finder_flags_per_apartment_questions():
    source = """
def verify_building_axioms(B, faces):
    for f in faces:
        if not any(a.has_face(f) for a in B.apartments):
            raise ValueError(f)


def intersection_complex(B, sigma, tau):
    hits = []
    for a in B.apartments:
        if a.has_face(sigma) and a.has_face(tau):
            hits.append(a)
    return hits


def common_faces(B, sigma, tau):
    return [a for a in B.apartments if sigma in a]
"""
    assert _apartment_scans(source) == [
        "verify_building_axioms", "intersection_complex", "intersection_complex",
        "common_faces",
    ]


def test_apartment_membership_has_one_home():
    source = (SRC / "building.py").read_text(encoding="utf-8")
    assert _apartment_scans(source) == []


# building.build_building takes every span from the join table of
# gf.subspace_tables: no echelon form is computed per combination of lines or
# per frame (and, by test_no_echelon_form_in_the_library, none at all)
ECHELON_CALLS = {"rref", "span_of_union"}


class _EchelonsPerCombination(_Calls):
    """rref and span_of_union calls inside the body of a `for` over
    combinations(...)."""

    def __init__(self):
        super().__init__()
        self.open_loops = 0
        self.hits = []

    def visit_For(self, node):
        over = isinstance(node.iter, ast.Call) and _callee(node.iter) == "combinations"
        self.visit(node.iter)
        self.open_loops += over
        for stmt in node.body + node.orelse:
            self.visit(stmt)
        self.open_loops -= over

    def visit_Call(self, node):
        if self.open_loops and _callee(node) in ECHELON_CALLS:
            self.hits.append(f"{self.scope[-1]}:{_callee(node)}")
        super().visit_Call(node)


def _echelons_per_combination(source):
    visitor = _EchelonsPerCombination()
    visitor.visit(ast.parse(source))
    return visitor.hits


def test_echelon_finder_flags_the_per_subset_frame_loop():
    source = """
def build_building(n, gf, lines, tokens):
    frames = []
    for combo in combinations(lines, n):
        stacked = [row for basis in combo for row in basis]
        if len(rref(gf, stacked)) != n:
            continue
        frames.append(combo)
        span_token = {}
        for r in range(1, n):
            for subset in combinations(range(n), r):
                basis = span_of_union(gf, [combo[i] for i in subset])
                span_token[subset] = tokens[basis]
    for line in lines:
        rref(gf, line)
    return frames
"""
    assert _echelons_per_combination(source) == [
        "build_building:rref", "build_building:span_of_union",
    ]


def test_building_spans_come_from_the_memoised_join():
    source = (SRC / "building.py").read_text(encoding="utf-8")
    assert _echelons_per_combination(source) == []


# the echelon-form helpers and the int bitsets of apartment membership are
# gone from the library: subspaces are numbered once by gf.subspace_tables,
# and membership is the packed words of building._apartment_words
RETIRED_SUBSPACE_HELPERS = {"_apartment_bits", "row_space_contains", "subspace_le"}


def test_no_echelon_form_in_the_library():
    defined, callers = set(), []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        defined |= {name for _, name in _definitions(source)}
        visitor = _Calls()
        visitor.visit(ast.parse(source))
        callers += [f"{path.name}:{scope}" for scope, call in visitor.calls
                    if _callee(call) in ECHELON_CALLS]
    assert defined & RETIRED_SUBSPACE_HELPERS == set()
    assert callers == []


# CPython 3.11's parser keeps its tokens in an array that doubles past 8192
# entries and callocs a Token for every new slot, so compiling a module of
# 8196 tokens peaks about 0.48 MB above one of 8192. Every benchmark child
# compiles the library (PYTHONDONTWRITEBYTECODE=1), and that step shows up in
# its peak RSS.
TOKEN_LIMIT = 8192


def _parser_tokens(source):
    """The parser's tokens as tokenize gives them, without COMMENT and NL; the
    ENCODING token counts too, which keeps the count one above the parser's."""
    import io
    import tokenize

    skipped = {tokenize.COMMENT, tokenize.NL}
    return sum(1 for t in tokenize.tokenize(io.BytesIO(source.encode()).readline)
               if t.type not in skipped)


def test_parser_token_counter():
    source = "x = 1  # one\n\n\ndef f():\n    return x\n"
    # ENCODING, x = 1 NEWLINE, def f ( ) : NEWLINE INDENT return x NEWLINE DEDENT ENDMARKER
    assert _parser_tokens(source) == 1 + 4 + 6 + 1 + 3 + 2


def test_every_module_stays_under_the_parser_token_step():
    over = {path.name: n for path in sorted(SRC.glob("*.py"))
            if (n := _parser_tokens(path.read_text(encoding="utf-8"))) > TOKEN_LIMIT}
    assert over == {}


# every default knob and every error type is read somewhere in the library
def _declared(path):
    """DEFAULT_* assignments of config.py, or the error classes of errors.py."""
    out = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign):
            out += [t.id for t in node.targets
                    if isinstance(t, ast.Name) and t.id.startswith("DEFAULT_")]
        elif isinstance(node, ast.ClassDef) and node.name != "HdxError":
            out.append(node.name)
    return out


def _unread(declared, sources):
    """The declared names no source reads, as a bare name, an attribute or
    the alias of a `from ... import name as alias`."""
    read, aliases = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                aliases.update((a.asname, a.name) for a in node.names if a.asname)
    read.update(name for alias, name in aliases if alias in read)
    return [name for name in declared if name not in read]


def test_unread_finder_flags_dead_knobs():
    source = """
from .config import DEFAULT_USED, DEFAULT_DEAD
from . import errors

DEFAULT_SHADOW = 1


def f(cap=None):
    if cap is None:
        raise errors.Refused(DEFAULT_USED)
"""
    declared = ["DEFAULT_USED", "DEFAULT_DEAD", "DEFAULT_SHADOW", "Refused", "Dead"]
    assert _unread(declared, [source]) == ["DEFAULT_DEAD", "DEFAULT_SHADOW", "Dead"]


def test_every_default_and_error_type_is_read():
    # config.candidate_cap reads DEFAULT_CANDIDATE_CAP for every search, so a
    # read inside the declaring module counts; the declaration itself does not
    sources = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    declared = _declared(SRC / "config.py") + _declared(SRC / "errors.py")
    assert len(declared) > 10
    assert _unread(declared, sources) == []


# every top-level function and class of the library, and every method of its
# classes other than the dunders, is read somewhere
def _definitions(source):
    """(qualified name, name) per top-level function or class and per
    non-dunder method of a top-level class."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            out += [(f"{node.name}.{m.name}", m.name) for m in node.body
                    if isinstance(m, ast.FunctionDef)
                    and not (m.name.startswith("__") and m.name.endswith("__"))]
    return out


def test_definitions_include_methods_but_not_dunders():
    source = """
class Report:
    def __init__(self):
        self.x = 1

    def to_json(self):
        return self._fields()

    def _fields(self):
        return {}


def helper():
    class Inner:
        def hidden(self):
            pass
"""
    assert _definitions(source) == [
        ("Report", "Report"), ("Report.to_json", "to_json"),
        ("Report._fields", "_fields"), ("helper", "helper"),
    ]


def test_unread_finder_flags_dead_helpers():
    source = """
from .gf import GF, rref, span_of_union as span, subspace_le as le


class Report:
    pass


def used(x):
    return helper(rref(x))


def helper(x):
    return span(x)


def dead(x):
    return used(x)
"""
    declared = ["rref", "span_of_union", "subspace_le", "GF", "Report", "used",
                "helper", "dead"]
    assert _unread(declared, [source]) == ["subspace_le", "GF", "Report", "dead"]


# the definitions only tests read: public surface kept for users of the library.
# gf.rref is an echelon-form oracle of the tests that stays in the library
# because the benchmark's per-layer metric `gf.rref.calls` names it (see
# test_benchmark_layers_name_library_functions); test_no_echelon_form_in_the_library
# pins that nothing in the library calls it. ChainFamily.entries stays because
# the benchmark's `building.chain_family.entries` counter reads len(fam.entries).
# fatfaces.good_dimension_witness is the one-cochain case of the batch that
# verify calls
TESTED_SURFACE = [
    "building.ChainFamily.entries", "building.contraction",
    "cochains.Cochain.scaled", "cochains.cochain_from_lines", "cochains.Chain.scaled",
    "complexes.face_weight", "complexes.set_norm", "complexes.complex_to_text",
    "fatfaces.good_dimension_witness",
    "gf.GF.neg", "gf.GF.elements", "gf.rref", "rings.Ring.neg", "rings.Ring.elements",
]


def test_every_library_definition_is_read():
    # a read inside the declaring module counts: private helpers and the
    # verify checks are read only where they are defined
    library = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    tests = [p.read_text(encoding="utf-8") for p in sorted(TESTS.glob("*.py"))]
    declared = [(f"{p.stem}.{qualname}", name) for p in sorted(SRC.glob("*.py"))
                for qualname, name in _definitions(p.read_text(encoding="utf-8"))]
    assert len(declared) > 250
    unread = set(_unread([name for _, name in declared], library + tests))
    assert [where for where, name in declared if name in unread] == []
    # anything else only tests reach is an oracle, and lives in the tests
    only_tests = set(_unread([name for _, name in declared], library))
    assert [where for where, name in declared if name in only_tests] == TESTED_SURFACE


# the sigma_0 filling is solved on the face index; the Subcomplex route it
# replaced is an oracle in tests/test_building.py, not library code
FILLING_ORACLES = {"Subcomplex", "_family_identity_target"}


def test_filling_oracles_live_in_the_tests():
    defined = {name for p in sorted(SRC.glob("*.py"))
               for _, name in _definitions(p.read_text(encoding="utf-8"))}
    assert defined & FILLING_ORACLES == set()


# each checked bound has one home: the {num, den} form is written only by
# complexes.frac_json; bad faces are read and the contraction homotopy and the
# link alpha sweep restated only in the modules that own them; and the CLI
# takes each report's verdict from its `ok`, never flag by flag
BOUND_HOMES = {
    ("bad_faces", None): "fatfaces.py",
    ("coboundary", "contraction"): "building.py",
    ("skeleton_alpha", "link"): "fatfaces.py",
}


class _Restatements(_Calls):
    """{num, den} dict literals with their enclosing function, and every
    attribute read whose name ends in `_ok`."""

    def __init__(self):
        super().__init__()
        self.fracs = []
        self.flags = []

    def visit_Dict(self, node):
        if {k.value for k in node.keys if isinstance(k, ast.Constant)} == {"num", "den"}:
            self.fracs.append((self.scope[-1], node.lineno))
        self.generic_visit(node)

    def visit_Attribute(self, node):
        if node.attr.endswith("_ok"):
            self.flags.append((node.attr, node.lineno))
        self.generic_visit(node)


def _restatements(filename, source):
    visitor = _Restatements()
    visitor.visit(ast.parse(source))
    out = [f"{filename}:{line} {{num, den}} in {scope}" for scope, line in visitor.fracs
           if (filename, scope) != ("complexes.py", "frac_json")]
    for scope, call in visitor.calls:
        inner = call.args[0] if call.args else None
        for (outer_name, inner_name), home in BOUND_HOMES.items():
            if _callee(call) == outer_name and filename != home and (
                inner_name is None
                or isinstance(inner, ast.Call) and _callee(inner) == inner_name
            ):
                out.append(f"{filename}:{call.lineno} {outer_name} in {scope}")
    if filename == "cli.py":
        out += [f"cli.py:{line} .{attr}" for attr, line in visitor.flags]
    return out


def test_restatement_finder_flags_each_restated_bound():
    source = """
def frac_json(x):
    return {"num": x.numerator, "den": x.denominator}


def report(X, B, fam, f, sigma, audit, sym):
    doc = {"eta": {"num": 1, "den": 2}, "k": {"num": 1}}
    ups = fatfaces_mod.bad_faces(X, fam)
    lhs = coboundary(contraction(B, fam, sigma, f)) + contraction(B, fam, sigma, f)
    alpha = max(skeleton_alpha(X)[0], expansion.skeleton_alpha(X.link(sigma))[0])
    return audit.homotopy_ok and sym.ok and audit.ok
"""
    assert _restatements("complexes.py", source) == [
        "complexes.py:7 {num, den} in report",
        "complexes.py:8 bad_faces in report",
        "complexes.py:9 coboundary in report",
        "complexes.py:10 skeleton_alpha in report",
    ]
    assert _restatements("cli.py", source) == [
        "cli.py:3 {num, den} in frac_json",
        "cli.py:7 {num, den} in report",
        "cli.py:8 bad_faces in report",
        "cli.py:9 coboundary in report",
        "cli.py:10 skeleton_alpha in report",
        "cli.py:11 .homotopy_ok",
    ]
    assert _restatements("fatfaces.py", source) == [
        "fatfaces.py:3 {num, den} in frac_json",
        "fatfaces.py:7 {num, den} in report",
        "fatfaces.py:9 coboundary in report",
    ]


def test_each_checked_bound_is_stated_in_one_module():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        offenders += _restatements(path.name, path.read_text(encoding="utf-8"))
    assert offenders == []


# local minimality of many cochains runs through cochains.locally_minimal_rows:
# the small-set check and the verify checks never read the one-row
# is_locally_minimal, and only cochains builds a localization map, a link face
# paired with perm_sign(sigma + tau)
BATCH_CALLERS = ("expansion.py", "verify.py")


def _one_row_reads(source):
    """Line numbers of every read or import of is_locally_minimal."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute, ast.ImportFrom))
            and "is_locally_minimal" in (getattr(node, "id", None), getattr(node, "attr", None),
                                         *(a.name for a in getattr(node, "names", ())))]


def _localization_maps(source):
    """Functions that call perm_sign on a concatenation, or call both link and perm_sign."""
    visitor = _Calls()
    visitor.visit(ast.parse(source))
    called, out = {}, set()
    for scope, call in visitor.calls:
        called.setdefault(scope, set()).add(_callee(call))
        arg = call.args[0] if call.args else None
        concatenated = isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Add)
        if _callee(call) == "perm_sign" and concatenated:
            out.add(scope)
    both = {scope for scope, names in called.items() if {"link", "perm_sign"} <= names}
    return sorted(out | both)


def test_batch_finders_flag_one_row_reads_and_localization_maps():
    source = """
from .cochains import is_locally_minimal as one_row


def screen(X, fs):
    return [f for f in fs if cochains_mod.is_locally_minimal(f)]


def localize_all(X, f, sigma):
    L = X.link(sigma)
    return {tau: perm_sign(tuple(sigma) + tau) * f(sigma + tau) for tau in L.faces(0)}


def signs(X, sigma, taus):
    return [perm_sign(sigma + t) for t in taus]


def twisted(X, sigma):
    return X.link(sigma), perm_sign(sigma)


def antisymmetry(face):
    return perm_sign(face[::-1])
"""
    assert _one_row_reads(source) == [2, 6]
    assert _localization_maps(source) == ["localize_all", "signs", "twisted"]


def test_local_minimality_batches_and_its_maps_have_one_home():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        if path.name in BATCH_CALLERS:
            offenders += [f"{path.name}:{line} is_locally_minimal"
                          for line in _one_row_reads(source)]
        if path.name != "cochains.py":
            offenders += [f"{path.name} {scope}" for scope in _localization_maps(source)]
    assert offenders == []


# sparse, arbitrary-precision unit-pivot elimination is intmat._unit_reduce
# alone: defined and called only in intmat, which hands lattice.smith_profile
# its echelon through unit_echelon. Stacked int64 elimination, the same pivot
# rule on many small systems at once, lives in cosets (see
# test_stacked_unit_elimination_lives_in_cosets)
UNIT_REDUCTION = "_unit_reduce"


def test_unit_elimination_lives_in_intmat():
    homes, callers = [], []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        homes += [path.name for _, name in _definitions(source) if name == UNIT_REDUCTION]
        visitor = _Calls()
        visitor.visit(ast.parse(source))
        callers += [f"{path.name}:{scope}" for scope, call in visitor.calls
                    if _callee(call) == UNIT_REDUCTION]
    assert homes == ["intmat.py"]
    assert callers and all(c.startswith("intmat.py:") for c in callers)


# the stacked int64 unit-pivot solve is cosets.unit_solve_stack: defined there
# alone, and called by building.solve_boundary alone, for the sigma_0 family
STACKED_UNIT_SOLVE = "unit_solve_stack"


def test_stacked_unit_elimination_lives_in_cosets():
    homes, callers = [], []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        homes += [path.name for _, name in _definitions(source) if name == STACKED_UNIT_SOLVE]
        visitor = _Calls()
        visitor.visit(ast.parse(source))
        callers += [f"{path.name}:{scope}" for scope, call in visitor.calls
                    if _callee(call) == STACKED_UNIT_SOLVE]
    assert homes == ["cosets.py"]
    assert callers == ["building.py:solve_boundary"]


# the dense matrix helpers serve only the tests, from tests/dense.py: the
# library neither defines nor calls them, and takes no Smith form of a
# densified matrix; products are intmat.combine's sums of sparse vectors
TEST_ONLY_HELPERS = {"zeros", "identity", "mat_mul", "mat_vec", "transpose"}


def _own_callee(call):
    """The callee's name when it is a plain name or an attribute of intmat,
    not of numpy or any other module."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr if getattr(func.value, "id", None) == "intmat" else None
    return getattr(func, "id", None)


def _dense_uses(source):
    """name:line of each definition or call of a test-only dense helper, and
    of each smith_normal_form call passed a dense_rows(...) result, directly
    or through a name its enclosing function assigns that result to."""
    tree = ast.parse(source)
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in TEST_ONLY_HELPERS:
            out.add(f"def {node.name}:{node.lineno}")
        elif isinstance(node, ast.Call) and _own_callee(node) in TEST_ONLY_HELPERS:
            out.add(f"{_own_callee(node)}:{node.lineno}")
    for scope in ast.walk(tree):
        if not isinstance(scope, ast.FunctionDef):
            continue
        nodes = list(ast.walk(scope))
        dense = {t.id for a in nodes if isinstance(a, ast.Assign)
                 and isinstance(a.value, ast.Call) and _callee(a.value) == "dense_rows"
                 for t in a.targets if isinstance(t, ast.Name)}
        for call in nodes:
            if isinstance(call, ast.Call) and _callee(call) == "smith_normal_form" and call.args:
                arg = call.args[0]
                if (isinstance(arg, ast.Call) and _callee(arg) == "dense_rows"
                        or isinstance(arg, ast.Name) and arg.id in dense):
                    out.add(f"smith_normal_form(dense_rows):{call.lineno}")
    return sorted(out)


def test_dense_use_finder():
    source = """
def transpose(A):
    return [list(col) for col in zip(*A)]


def smith_profile(rows, n):
    M = intmat.dense_rows(rows, n)
    U, d, V = intmat.smith_normal_form(M)
    return intmat.mat_mul(intmat.mat_mul(U, M), V)


def kernel_int(rows, n):
    _, d, V = smith_normal_form(dense_rows(rows, n))
    return transpose(V)[len(d):]


def sparse(rows, n):
    M = intmat.dense_rows(rows, n)
    return intmat.smith_normal_form(rows, n), intmat.combine({0: 1}, rows), M


def array(n):
    return np.zeros((n, n)), np.identity(n)
"""
    assert _dense_uses(source) == [
        "def transpose:2", "mat_mul:9", "smith_normal_form(dense_rows):13",
        "smith_normal_form(dense_rows):8", "transpose:14",
    ]


def test_dense_helpers_serve_only_the_tests():
    offenders = [f"{path.name} {where}" for path in sorted(SRC.glob("*.py"))
                 for where in _dense_uses(path.read_text(encoding="utf-8"))]
    assert offenders == []
    homes = {path.name: {name for _, name in _definitions(path.read_text(encoding="utf-8"))}
             & (TEST_ONLY_HELPERS | {"dense_smith"}) for path in sorted(TESTS.glob("*.py"))}
    assert {name: found for name, found in homes.items() if found} == {
        "dense.py": TEST_ONLY_HELPERS | {"dense_smith"}}


# the group acts on a building as int64 vertex permutations: the dict actions
# are oracles in tests/test_building.py, and faces are looked up by their
# level keys only in `_face_index` and the face-image helper `_moved`
DICT_ACTIONS = {"_vertex_action", "_dot", "_face_image"}
KEY_LOOKUPS = {"_face_index", "_moved"}


def _key_lookups(source):
    """Enclosing function:line of each np.searchsorted call passed a `.keys`
    attribute."""
    visitor = _Calls()
    visitor.visit(ast.parse(source))
    return [f"{scope}:{call.lineno}" for scope, call in visitor.calls
            if _callee(call) == "searchsorted"
            and any(isinstance(a, ast.Attribute) and a.attr == "keys" for a in call.args)]


def test_key_lookup_finder():
    source = """
def _face_index(B):
    return np.searchsorted(index[k - 1].keys, rows @ radix[1:])


def transport(level, G):
    at = np.searchsorted(level.keys, keys)
    return np.searchsorted(other, keys)
"""
    assert _key_lookups(source) == ["_face_index:3", "transport:7"]


def test_group_actions_are_arrays_with_one_face_lookup():
    defined, lookups = set(), []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        defined |= {name for _, name in _definitions(source)}
        lookups += [f"{path.name}:{where}" for where in _key_lookups(source)]
    assert defined & DICT_ACTIONS == set()
    assert lookups and {where.split(":")[1] for where in lookups} == KEY_LOOKUPS
    assert all(where.startswith("building.py:") for where in lookups)


# the benchmark's per-layer metrics name library functions that its tracer
# wraps: a renamed function leaves its metric unmeasured, and a traced run
# refuses every workload while the library's own tests stay green
BENCHMARK = SRC.parent.parent / "BENCHMARK.json"
SYNTHETIC_LAYERS = {"cochains.subgroup", "expansion.field", "expansion.generic", "complexes.link"}


def _layer_names(metrics):
    """(module, function) per metric named <module>.<function>.(calls|self_s|busy_s)
    outside the synthetic layers, and the check name of each verify.check.<name>.* metric."""
    functions, checks = [], []
    for name in metrics:
        parts = name.split(".")
        if parts[:2] == ["verify", "check"]:
            checks.append(".".join(parts[2:-1]))
        elif (len(parts) == 3 and parts[2] in {"calls", "self_s", "busy_s"}
              and ".".join(parts[:2]) not in SYNTHETIC_LAYERS):
            functions.append((parts[0], parts[1]))
    return functions, checks


def test_layer_name_finder():
    metrics = ["cochains.self_s", "cochains.distance.calls", "building.solve_boundary.busy_s",
               "building.intersection_complex.misses", "expansion.field.busy_s",
               "complexes.link.calls", "verify.check.delta-delta-zero.busy_s", "failed_frac"]
    assert _layer_names(metrics) == (
        [("cochains", "distance"), ("building", "solve_boundary")], ["delta-delta-zero"],
    )


def test_benchmark_layers_name_library_functions():
    import importlib
    import inspect
    import json

    from hdx import verify

    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    functions, checks = _layer_names([m["name"] for m in spec["per_layer"]])
    assert functions and checks
    unknown = []
    for module, name in functions:
        fn = getattr(importlib.import_module(f"hdx.{module}"), name, None)
        if not (inspect.isfunction(fn) and fn.__module__ == f"hdx.{module}"):
            unknown.append(f"{module}.{name}")
    assert unknown == []
    assert sorted(set(checks) - {name for name, _ in verify.CHECKS}) == []


def test_counting_family_entries_builds_no_chain(monkeypatch):
    # the benchmark counts `len(chain_family(...).entries)`; Chains are built on read
    from hdx import building, cochains
    from hdx.rings import INTEGERS

    built = []
    monkeypatch.setattr(cochains.Chain, "trusted", classmethod(lambda *args: built.append(args)))
    fam = building.chain_family(building.build_building(3, 2), INTEGERS)
    assert len(fam.entries) == 315 and fam.entries
    assert built == []


# the chain family has one form, the arrays `chain_family` checks: Chains are
# built on read by ChainFamily's own methods, and iota_sigma is summed by one
# kernel that `contraction` and `homotopy_failure` both call
RETIRED_FORMS = {"_triplets", "_arrays"}
IOTA_KERNEL = "_iota"


def _identifiers(source):
    """Every name a source defines or reads: defs, classes, arguments, names
    and attributes."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.arg):
            out.add(node.arg)
    return out


def _trusted_builders(source, cls="Chain"):
    """The top-level function or class around each `cls.trusted(...)` call."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            for call in ast.walk(node) if isinstance(call, ast.Call) and _callee(call) == "trusted"
            and getattr(call.func.value, "id", None) == cls}


def _callees(source, name):
    """The callees of the top-level function `name`."""
    node = next(n for n in ast.parse(source).body
                if isinstance(n, ast.FunctionDef) and n.name == name)
    return {_callee(call) for call in ast.walk(node) if isinstance(call, ast.Call)}


def test_one_form_finders():
    source = """
@dataclass
class Family:
    _arrays: tuple = None

    def __getitem__(self, key):
        return Chain.trusted(self.ring, 0, {})


def _triplets(index, entries):
    return [Chain.trusted(r, 0, c) for r, c in entries]


def contraction(fam, sigma, f):
    return _iota(fam, [0], f.dim, np.zeros(3))
"""
    assert _identifiers(source) & (RETIRED_FORMS | {"key", "fam"}) == RETIRED_FORMS | {"key", "fam"}
    assert _trusted_builders(source) == {"Family", "_triplets"}
    assert _trusted_builders(source, "Cochain") == set()
    assert _callees(source, "contraction") == {IOTA_KERNEL, "zeros"}


def test_the_chain_family_has_one_form():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert [name for name, source in sources.items() if _identifiers(source) & RETIRED_FORMS] == []
    building = ast.parse(sources["building.py"])
    imported = {a.name for node in ast.walk(building) if isinstance(node, ast.ImportFrom)
                for a in node.names}
    assert "Chain" in imported and "evaluate" not in imported
    builders = {f"{name}:{where}" for name, source in sources.items()
                for where in _trusted_builders(source)}
    assert builders == {"building.py:ChainFamily"}
    for name in ("contraction", "homotopy_failure"):
        assert IOTA_KERNEL in _callees(sources["building.py"], name)


# the LMM16 cone inequality is stated once, by building.cone_norms: the audit
# and verify read it, and no distance search is left in building.py
def _reached(source, name):
    """The callees of the top-level function `name`, through the top-level
    functions of the same source it calls."""
    seen, todo = set(), [name]
    defined = {n.name for n in ast.parse(source).body if isinstance(n, ast.FunctionDef)}
    while todo:
        callees = _callees(source, todo.pop())
        todo += sorted((callees & defined) - seen)
        seen |= callees
    return seen


def test_reach_finder_follows_local_calls():
    source = """
def cone(fam, f):
    return _terms(fam, f)[1] @ weights(fam)


def _terms(fam, f):
    return fam, _iota(fam, slice(None), f.dim, f)
"""
    assert _reached(source, "cone") == {"_terms", "weights", "_iota", "slice"}
    assert _callees(source, "cone") == {"_terms", "weights"}


def test_the_cone_inequality_is_stated_once():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    imported = {a.name for node in ast.walk(ast.parse(sources["building.py"]))
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert imported & {"distance", "COBOUNDARIES"} == set()
    for name in ("cone_norms", "homotopy_failure"):
        assert IOTA_KERNEL in _reached(sources["building.py"], name)
    checked = _callees(sources["verify.py"], "check_contraction_distance_bound")
    assert "cone_norms" in checked and "contraction" not in checked


# r in A_{sigma,tau} is answered in one place: the sigma_0 filling's domains,
# the summed bound's T_0 and the cone inequality's weight rows all read
# building._in_intersections, and no per-pair intersection helper is left
INTERSECTIONS = "_in_intersections"
RETIRED_INTERSECTIONS = {"_common_faces"}


def test_apartment_intersections_have_one_reader():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    defined = {name for source in sources.values() for _, name in _definitions(source)}
    assert defined & RETIRED_INTERSECTIONS == set()
    assert INTERSECTIONS in defined
    for name in ("intersection_complex", "_summed_totals", "cone_norms"):
        assert INTERSECTIONS in _reached(sources["building.py"], name)


# the coset scan reads delta_k as sparse rows: no dense delta on its path
def test_the_coset_scan_builds_no_dense_delta():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    scan = _reached(sources["expansion.py"], "_coset_scan")
    assert "delta_rows" in scan and "delta_matrix" not in scan
    for name in ("distance_table", "coboundary_norm_table"):
        assert "delta_matrix" not in _reached(sources["cosets.py"], name)


# Cochain.trusted skips every check, so only producers that read their faces
# off the complex build through it; the verify suite and the CLI, which must
# catch a broken producer and refuse bad input, build through Cochain(...)
TRUSTED_COCHAIN_BUILDERS = {
    "cochains.py:coboundary", "cochains.py:localize", "cochains.py:vector_cochain",
    "cochains.py:random_cochain", "fatfaces.py:links_inequality_check",
}


def test_only_producers_build_cochains_unchecked():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    builders = {f"{name}:{where}" for name, source in sources.items()
                for where in _trusted_builders(source, "Cochain")}
    assert builders == TRUSTED_COCHAIN_BUILDERS
    for name in ("verify.py", "cli.py"):
        assert "trusted" not in _identifiers(sources[name])


def test_the_checked_cochain_constructor_still_checks():
    from hdx.catalog import named_complex
    from hdx.cochains import Cochain
    from hdx.errors import DimensionMismatch, FaceNotInComplex
    from hdx.rings import prime_field

    X, F3 = named_complex("hollow_triangle"), prime_field(3)
    with pytest.raises(FaceNotInComplex):
        Cochain(X, F3, 1, {("a", "z"): 1})
    with pytest.raises(DimensionMismatch):
        Cochain(X, F3, 1, {("a",): 1})
    assert Cochain(X, F3, 1, {("a", "b"): -1, ("a", "c"): 3}).values == {("a", "b"): 2}
