"""Every reader of the library's input files, under one contract.

Each reader either returns a valid object or raises a ``ValueError`` that
names the path.  The six text readers walk their files through
``textio.lines``, which also names the line of a bad row, non-ASCII
bytes included.
"""

import ast
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zigzagst import textio
from zigzagst.dyngraph import (
    DynamicNetwork,
    FeatureSeries,
    read_feature_csv,
    read_snapshot_csv,
    write_feature_csv,
    write_snapshot_csv,
)
from zigzagst.filtration import SimplicialComplex, read_complex_dump, write_complex_dump
from zigzagst.net import ModelConfig, TrainResult, init_params, load_checkpoint, save_checkpoint
from zigzagst.pipeline import RunConfig, gen_synthetic
from zigzagst.zigzag import ZPD, read_zpd_csv, write_zpd_csv
from zigzagst.zpi import GridSpec, ZPIGrid, read_zpi, write_zpi

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _write_checkpoint(path):
    cfg = ModelConfig(n_nodes=3, in_features=1, window=4, horizon=2, hidden=4, num_layers=1,
                      embed_dim=2, laplacian_order=1, zpi_resolution=8)
    with open(path, "wb") as fh:  # a path without ".npz" would get one appended
        result = TrainResult(init_params(cfg, np.random.default_rng(0)), cfg, [], np.zeros(1),
                             np.ones(1), 1.0)
        save_checkpoint(fh, result, {"filtration": "power"})


_DATA = gen_synthetic(n_nodes=6, length=3, seed=1)

# reader, the type of what it returns, and how a valid file of its format is written
READERS = {
    "snapshot csv": (read_snapshot_csv, DynamicNetwork,
                     lambda path: write_snapshot_csv(_DATA.network, path)),
    "feature csv": (read_feature_csv, FeatureSeries,
                    lambda path: write_feature_csv(_DATA.features, path)),
    "zpd csv": (read_zpd_csv, ZPD,
                lambda path: write_zpd_csv(ZPD(((0, 2, 6, 2), (1, 3, 5, 1))), path)),
    "complex dump": (read_complex_dump, SimplicialComplex, lambda path: write_complex_dump(
        SimplicialComplex(range(4), [(0, 1), (0, 2), (1, 2), (2, 3)]), path)),
    "zpi": (read_zpi, ZPIGrid, lambda path: write_zpi(
        ZPIGrid(GridSpec(3, 1.0, 4.0, 0.0, 3.0, 0.5), np.arange(9.0).reshape(3, 3) / 7.0), path)),
    "config": (RunConfig.from_file, RunConfig, lambda path: path.write_text(
        "# run\nnu_star = 0.5\ntau = 3\nhomology_dims = 0,1\ncheck = yes\n")),
    "checkpoint": (load_checkpoint, tuple, _write_checkpoint),
}
TEXT_READERS = sorted(name for name in READERS if name != "checkpoint")

# pieces of the formats, so that blobs of them reach the row parsers
TOKENS = [b"0", b"1", b"2", b"9", b"-", b".", b"e", b"nan", b"inf", b",", b" ", b"\n", b"\r",
          b"=", b"#", b"tau", b"t,u,v,w", b"t,node,f1", b"p,twice_birth,twice_death", b"\xe9"]


def _valid_bytes(name, directory):
    path = directory / f"valid-{name.replace(' ', '-')}"
    READERS[name][2](path)
    return path.read_bytes()


def _at(path, message):
    """A pattern for an error that names ``path`` and then says ``message``."""
    return f"^{re.escape(str(path))}: {message}"


def _assert_valid_or_names_the_path(name, path):
    reader, kind, _ = READERS[name]
    try:
        got = reader(path)
    except ValueError as exc:
        assert str(path) in str(exc)
    else:
        assert isinstance(got, kind)


@pytest.mark.parametrize("name", sorted(READERS))
@given(blob=st.binary(max_size=300) | st.lists(st.sampled_from(TOKENS), max_size=80).map(b"".join))
def test_every_reader_returns_a_valid_object_or_names_the_path_on_blobs(
    tmp_path_factory, name, blob
):
    path = tmp_path_factory.getbasetemp() / f"blob-{name.replace(' ', '-')}"
    path.write_bytes(blob)
    _assert_valid_or_names_the_path(name, path)


@pytest.mark.parametrize("name", sorted(READERS))
@given(data=st.data())
def test_every_reader_returns_a_valid_object_or_names_the_path_on_one_edit(
    tmp_path_factory, name, data
):
    base = tmp_path_factory.getbasetemp()
    valid = _valid_bytes(name, base)
    at = data.draw(st.integers(0, len(valid) - 1), label="at")
    byte = bytes([data.draw(st.sampled_from(b"019,.- \n=e") | st.integers(0, 255), label="byte")])
    edit = data.draw(st.sampled_from(["replace", "insert", "delete", "truncate"]), label="edit")
    edited = {
        "replace": valid[:at] + byte + valid[at + 1:],
        "insert": valid[:at] + byte + valid[at:],
        "delete": valid[:at] + valid[at + 1:],
        "truncate": valid[:at],
    }[edit]
    path = base / f"edited-{name.replace(' ', '-')}"
    path.write_bytes(edited)
    _assert_valid_or_names_the_path(name, path)


@pytest.mark.parametrize("name", sorted(READERS))
def test_every_reader_reads_its_valid_file(tmp_path, name):
    path = tmp_path / "valid"
    path.write_bytes(_valid_bytes(name, tmp_path))
    reader, kind, _ = READERS[name]
    assert isinstance(reader(path), kind)


@pytest.mark.parametrize("name", TEXT_READERS)
def test_every_text_reader_names_the_line_of_a_non_ascii_byte(tmp_path, name):
    lines = _valid_bytes(name, tmp_path).split(b"\n")
    lines[1] = lines[1][:1] + b"\xe9" + lines[1][1:]
    path = tmp_path / "accented"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ValueError, match=_at(path, "line 2: byte 0xe9 is not ASCII$")):
        READERS[name][0](path)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_a_non_ascii_byte_past_the_first_decoded_chunk_names_its_own_line(tmp_path, newline):
    # text mode decodes 8 KiB at a time, so the walk fails thousands of lines early
    rows = ["t,u,v,w"] + [f"{t},0,1,1" for t in range(1, 3000)]
    rows[2499] += "\xe9"
    path = tmp_path / "snaps.csv"
    path.write_bytes(newline.join(rows).encode("latin-1"))
    with pytest.raises(ValueError, match=_at(path, "line 2500: byte 0xe9 is not ASCII$")):
        read_snapshot_csv(path)


def test_lines_names_the_line_in_hand_and_leaves_other_errors_alone(tmp_path):
    path = tmp_path / "rows.txt"
    path.write_text("  a  \n\nb\n")
    with textio.lines(path) as lines:
        assert list(lines) == [(1, "a"), (2, ""), (3, "b")]
    with pytest.raises(ValueError, match=_at(path, "line 3: no b$")) as info:
        with textio.lines(path) as lines:
            for _, line in lines:
                if line == "b":
                    raise ValueError("no b")
    assert str(info.value.__cause__) == "no b"
    with pytest.raises(KeyError):
        with textio.lines(path) as lines:
            raise KeyError("not a ValueError")
    with pytest.raises(FileNotFoundError):
        with textio.lines(tmp_path / "missing.txt"):
            pass


def test_distinct_lines_counts_first_seen_and_names_the_first_line_in_hand(tmp_path):
    path = tmp_path / "rows.txt"
    path.write_bytes(b"b\r\n  a  \n\nb\ra\n")
    with textio.distinct_lines(path) as pairs:
        assert list(pairs) == [("b", 2), ("a", 2), ("", 1)]
    with pytest.raises(ValueError, match=_at(path, "line 2: no a$")) as info:
        with textio.distinct_lines(path) as pairs:
            for line, _ in pairs:
                if line == "a":
                    raise ValueError("no a")
    assert str(info.value.__cause__) == "no a"
    with pytest.raises(ValueError, match=_at(path, "line 6: after the walk$")):
        with textio.distinct_lines(path) as pairs:
            list(pairs)
            raise ValueError("after the walk")
    path.write_bytes(b"a\na\nb\xe9\nb\xe9\n")
    with pytest.raises(ValueError, match=_at(path, "line 3: byte 0xe9 is not ASCII$")):
        with textio.distinct_lines(path):
            raise AssertionError("the block ran")
    with pytest.raises(FileNotFoundError):
        with textio.distinct_lines(tmp_path / "missing.txt"):
            pass


def test_config_file_errors_name_the_file_and_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# run\ntau = 3\nbogus = 1\n")
    with pytest.raises(ValueError, match=_at(path, "line 3: unknown config key 'bogus'$")):
        RunConfig.from_file(path)
    path.write_text("tau = 3\nnu_star\n")
    with pytest.raises(ValueError, match=_at(path, "line 2: expected key = value$")):
        RunConfig.from_file(path)


def test_a_bad_config_file_value_raises_even_when_overridden(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("nu_star = 0.5\ntau = 1.5\n")
    with pytest.raises(ValueError, match=_at(path, "line 2: tau expects int values, got '1.5'$")):
        RunConfig.from_file(path, {"tau": "3"})


def test_read_zpi_names_the_line_of_a_negative_pixel(tmp_path):
    path = tmp_path / "bad.zpi"
    path.write_text("3 0 1 0 1 0.5\n1 2 3\n4 -5 6\n7 8 9\n")
    with pytest.raises(ValueError, match=_at(path, "line 3: value -5.0 is negative$")):
        read_zpi(path)


def _opens_for_reading(call: ast.Call) -> bool:
    """Whether ``call`` is an ``open`` whose mode, as far as the source shows, can read."""
    func = call.func
    if not (isinstance(func, ast.Name) and func.id == "open"
            or isinstance(func, ast.Attribute) and func.attr == "open"):
        return False
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"),
                call.args[1] if len(call.args) > 1 else ast.Constant("r"))
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and "r" not in mode.value and "+" not in mode.value)


def test_only_textio_opens_files_for_reading():
    readers = sorted(
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in SRC.rglob("*.py") if path.name != "textio.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and _opens_for_reading(node)
    )
    assert readers == [], "read text files through zigzagst.textio.lines"


def test_only_the_run_input_step_reads_feature_files():
    """Pairing a feature file with its snapshots stays in ``pipeline._load_data``."""
    callers = sorted({
        f"{path.stem}.{func.name}"
        for path in SRC.rglob("*.py")
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and "read_feature_csv" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))
    })
    assert callers == ["pipeline._load_data"]


def _unused_imports(path: pathlib.Path) -> list[tuple[int, str]]:
    """``(line, name)`` of each name the module at ``path`` imports and never reads.

    A name listed in ``__all__`` or imported on a ``# noqa: F401`` line is
    a re-export, not a leftover.
    """
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    lines = text.splitlines()
    kept = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    kept |= {
        item.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for item in node.value.elts
    }
    return [
        (alias.lineno, name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
        for name in [(alias.asname or alias.name).split(".")[0]]
        if name not in kept and "# noqa: F401" not in lines[alias.lineno - 1]
    ]


def test_every_import_in_the_library_is_used():
    unused = [f"{path.relative_to(SRC)}:{line}: {name}"
              for path in sorted(SRC.rglob("*.py")) for line, name in _unused_imports(path)]
    assert unused == []


def test_the_unused_import_check_sees_a_leftover(tmp_path):
    module = tmp_path / "leftover.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import pi, tau  # noqa: F401\n"
        "from .filtration import SimplicialComplex, betti_numbers\n"
        "__all__ = ['pi']\n"
        "print(os.path.sep, betti_numbers)\n"
    )
    assert _unused_imports(module) == [(4, "SimplicialComplex")]
