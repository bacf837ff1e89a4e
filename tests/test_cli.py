import hashlib
import json
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

import planetree
from planetree import builder, cli
from planetree.cli import main
from planetree.instance_io import (
    InstanceFormatError,
    dump_instance,
    dumps_instance,
    load_instance,
    loads_instance,
    parse_edge_list,
)
from planetree.generators import path_complement, r_construction, random_instance
from planetree.geometry import COORD_LIMIT
from planetree.oracle import has_plane_spanning_tree


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_path_complement(tmp_path, capsys):
    out = tmp_path / "t5c.json"
    code, stdout, _ = run(capsys, "gen", "path-complement", "5", "--out", str(out))
    assert code == 0
    assert "s=3" in stdout
    assert out.exists()


def test_gen_complete_and_r_construction(tmp_path, capsys):
    code, stdout, _ = run(
        capsys, "gen", "complete", "8", "--seed", "42", "--out", str(tmp_path / "c.json")
    )
    assert code == 0 and "s=0" in stdout
    code, stdout, _ = run(
        capsys, "gen", "r-construction", "7", "--out", str(tmp_path / "r.json")
    )
    assert code == 0 and "s=4" in stdout


def test_gen_bad_family_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "star", "5"])
    assert exc.value.code == 2


def test_gen_below_family_minimum_exits_2(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "gen", "r-construction", "4", "--out", str(tmp_path / "r4.json")
    )
    assert code == 2
    assert "error" in stderr


@pytest.mark.parametrize("scale", ["0", "2000000000"])
def test_a_scale_outside_the_coordinate_bound_exits_2(tmp_path, capsys, scale):
    out = tmp_path / "p5.json"
    code, stdout, stderr = run(
        capsys, "gen", "path-complement", "5", "--scale", scale, "--out", str(out)
    )
    detail = f"scale {scale} must be nonzero with |scale| <= {COORD_LIMIT}"
    assert (code, stdout, stderr) == (2, "", f"error: {detail}\n")
    assert not out.exists()


def test_a_small_scale_doubles_until_the_polygon_is_realized(tmp_path, capsys):
    out = tmp_path / "p300.json"
    code, stdout, stderr = run(
        capsys, "gen", "path-complement", "300", "--scale", "1", "--out", str(out)
    )
    assert (code, stderr) == (0, "")
    assert stdout == f"wrote {out}\ns=298\n"
    assert load_instance(str(out)).n == 300


def test_round_trip_is_byte_exact(tmp_path, capsys):
    out = tmp_path / "inst.json"
    run(capsys, "gen", "random", "7", "--seed", "9", "--out", str(out))
    text = out.read_text().strip()
    g = loads_instance(text)
    assert dumps_instance(g) == text
    again = tmp_path / "again.json"
    dump_instance(g, str(again))
    assert again.read_text() == out.read_text()


def test_stats_complete(tmp_path, capsys):
    out = tmp_path / "c5.json"
    run(capsys, "gen", "complete", "5", "--seed", "1", "--out", str(out))
    code, stdout, _ = run(capsys, "stats", str(out))
    assert code == 0
    assert "s=0" in stdout


def test_stats_path_complement_lists_witnesses(tmp_path, capsys):
    out = tmp_path / "t5c.json"
    run(capsys, "gen", "path-complement", "5", "--out", str(out))
    code, stdout, _ = run(capsys, "stats", str(out))
    assert code == 0
    assert "empty_triangles=10" in stdout
    assert "s=3" in stdout
    assert stdout.count("disconnected=") == 3


def test_stats_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"points": [[0, 0], [1, 0]')
    code, _, stderr = run(capsys, "stats", str(bad))
    assert code == 1
    assert "line" in stderr and "column" in stderr


def test_float_coordinates_rejected(tmp_path, capsys):
    bad = tmp_path / "float.json"
    bad.write_text('{"points": [[0, 0], [1.5, 0], [0, 1]], "edges": []}')
    code, _, stderr = run(capsys, "stats", str(bad))
    assert code == 1
    assert "points[1][0]" in stderr


THREE_POINTS = "[[0, 0], [4, 1], [1, 3]]"
BAD_EDGES = [
    ("[[0, 1], [1, 1]]", "edge (1, 1) is a self-loop"),
    ("[[0, 1], [0, 3]]", "edge (0, 3) out of range for 3 points"),
    ("[[-1, 2]]", "edge (-1, 2) out of range for 3 points"),
    ("[[0, 1.5]]", "edge (0, 1.5) has a non-integer index"),
    ("[[true, 1]]", "edge (True, 1) has a non-integer index"),
    ('[["0", 1]]', "edge ('0', 1) has a non-integer index"),
    ("[[[1], [2]]]", "edge ([1], [2]) has a non-integer index"),
    ("[[0, 1], [0, 1, 2]]", "expected [i, j], got [0, 1, 2]"),
    ('"0-1"', "expected a list, got '0-1'"),
]


@pytest.mark.parametrize("edges, detail", BAD_EDGES)
def test_load_names_the_bad_edge(edges, detail):
    text = f'{{"points": {THREE_POINTS}, "edges": {edges}}}'
    with pytest.raises(InstanceFormatError) as err:
        loads_instance(text)
    assert str(err.value) == f"invalid edges: {detail}"


@pytest.mark.parametrize("edges, detail", BAD_EDGES)
def test_stats_refuses_a_bad_edge(tmp_path, capsys, edges, detail):
    bad = tmp_path / "bad_edges.json"
    bad.write_text(f'{{"points": {THREE_POINTS}, "edges": {edges}}}')
    code, stdout, stderr = run(capsys, "stats", str(bad))
    assert code == 1 and stdout == ""
    assert stderr == f"error: invalid edges: {detail}\n"


@pytest.mark.parametrize(
    "text, detail",
    [
        ("[]", "top level must be an object"),
        ('{"points": []}', "'points' must be a non-empty list"),
        ('{"points": {"0": [0, 0]}}', "'points' must be a non-empty list"),
        ('{"points": [[0, 0], [1, 2, 3]]}', "points[1]: expected [x, y]"),
        ('{"points": [[0, 0], 7]}', "points[1]: expected [x, y]"),
    ],
)
def test_load_names_a_bad_shape(text, detail):
    with pytest.raises(InstanceFormatError) as err:
        loads_instance(text)
    assert str(err.value) == detail


@pytest.mark.parametrize(
    "text, detail",
    [
        ("[[0, 1]", "invalid edge list JSON at line 1 column 8: Expecting ',' delimiter"),
        ('{"edges": []}', "edge list must be a JSON array"),
        ("[[0, 1], [2]]", "edge[1]: expected [i, j]"),
        ('[[0, 1], [1, "2"]]', "edge[1][1]: expected an integer, got '2'"),
    ],
)
def test_edge_list_errors_name_the_entry(text, detail):
    with pytest.raises(InstanceFormatError) as err:
        parse_edge_list(text)
    assert str(err.value) == detail


def test_an_edge_list_is_inline_or_a_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tree.json").write_text("[[0, 1]]")
    assert parse_edge_list("tree.json") == parse_edge_list(" [[0, 1]]") == [(0, 1)]
    (tmp_path / "[[0, 2]]").write_text("[[0, 1]]")
    assert parse_edge_list("[[0, 2]]") == [(0, 2)]  # `[` always means inline


DEEP = "[" * 200_000
LONG = "9" * 5_000
# Each hostile input as an instance file, a tree file and an inline tree.
# An inline argument is text already: Python decodes non-UTF-8 argv bytes
# to lone surrogates, as the third non-UTF-8 entry does by hand.
HOSTILE = {
    "nested": (DEEP.encode(), DEEP.encode(), DEEP, "maximum recursion depth"),
    "long integer": (
        f'{{"points": [[{LONG}, 0], [4, 1], [1, 3]], "edges": []}}'.encode(),
        f"[[0, {LONG}]]".encode(),
        f"[[0, {LONG}]]",
        "digits",
    ),
    "non-UTF-8": (
        f'{{"points": {THREE_POINTS}, "edges": []}}'.encode() + b"\xff",
        b"[[0, 1]]\xff",
        b"[[0, 1]]\xff".decode("utf-8", "surrogateescape"),
        "not UTF-8 text",
    ),
}


@pytest.mark.parametrize("kind", sorted(HOSTILE))
def test_hostile_input_is_a_format_error(tmp_path, capsys, kind):
    instance, tree, inline, detail = HOSTILE[kind]
    bad = tmp_path / "bad.json"
    bad.write_bytes(instance)
    tree_file = tmp_path / "tree.json"
    tree_file.write_bytes(tree)
    good = tmp_path / "good.json"
    good.write_text(f'{{"points": {THREE_POINTS}, "edges": [[0, 1], [1, 2]]}}')
    runs = [
        (["stats", str(bad)], detail),
        (["check", str(good), str(tree_file)], detail),
        (["check", str(good), inline], "invalid edge list JSON"),
    ]
    for argv, expected in runs:
        code, stdout, stderr = run(capsys, *argv)
        assert (code, stdout) == (1, "")
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert expected in stderr


def test_load_without_edges():
    text = f'{{"points": {THREE_POINTS}}}'
    assert loads_instance(text, require_edges=False).edges == frozenset()
    with pytest.raises(InstanceFormatError, match="missing 'edges'"):
        loads_instance(text)


def test_load_canonicalises_and_merges_pairs():
    g = loads_instance(f'{{"points": {THREE_POINTS}, "edges": [[1, 0], [0, 1], [2, 1]]}}')
    assert g.edges == frozenset({(0, 1), (1, 2)})
    assert dumps_instance(g) == f'{{"edges": [[0, 1], [1, 2]], "points": {THREE_POINTS}}}'


@pytest.mark.parametrize(
    "points, detail",
    [
        ("[[0, 0], [4, 1], [1, 3], [4, 1]]", "points 1 and 3 coincide"),
        ("[[0, 0], [4, 1], [2, 2], [8, 2]]", "points 0, 1 and 3 are collinear"),
    ],
)
def test_build_names_the_points_out_of_general_position(tmp_path, capsys, points, detail):
    bad = tmp_path / "degenerate.json"
    bad.write_text(f'{{"points": {points}, "edges": []}}')
    code, stdout, stderr = run(capsys, "build", str(bad))
    assert code == 1 and stdout == ""
    assert stderr == (
        "error: invalid point set: point set must be duplicate-free with no "
        f"collinear triple: {detail}\n"
    )


def test_build_r_construction(tmp_path, capsys):
    out = tmp_path / "r7.json"
    run(capsys, "gen", "r-construction", "7", "--out", str(out))
    code, stdout, _ = run(capsys, "build", str(out))
    assert code == 0
    tree_line = [l for l in stdout.splitlines() if l.startswith("tree=")][0]
    edges = json.loads(tree_line.removeprefix("tree="))
    assert len(edges) == 6
    assert "flags=[]" in stdout


def test_build_path_complement_exits_3(tmp_path, capsys):
    out = tmp_path / "t6c.json"
    run(capsys, "gen", "path-complement", "6", "--out", str(out))
    code, stdout, _ = run(capsys, "build", str(out))
    assert code == 3
    assert "tree=none" in stdout
    assert "precondition_violated" in stdout



def test_build_exits_4_when_the_oracle_budget_runs_out(tmp_path, capsys, monkeypatch):
    # The plane path of an r-construction is not in convex position, so
    # its fallback runs the oracle.
    out = tmp_path / "r12-path.json"
    dump_instance(r_construction(12)[0].graph, str(out))
    monkeypatch.setattr(builder, "has_plane_spanning_tree", partial(has_plane_spanning_tree, budget=10))
    code, stdout, _ = run(capsys, "build", str(out))
    assert code == 4
    assert stdout.splitlines() == [
        "tree=none",
        'trace=[[12, "fallback"]]',
        'flags=["precondition_violated", "oracle_budget_exceeded"]',
    ]


def test_a_reader_that_closes_early_is_not_an_input_failure(tmp_path, capsys):
    # `planetree build FILE | head -1`, with a reader that has already
    # gone: the build succeeded, so no `error:` line and exit 141
    # (128 + SIGPIPE), and no complaint from the flush at shutdown.
    out = tmp_path / "r7.json"
    run(capsys, "gen", "r-construction", "7", "--out", str(out))
    env = {**os.environ, "PYTHONPATH": str(Path(planetree.__file__).parents[1])}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "planetree.cli", "build", str(out)],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, "")


def test_build_svg_output(tmp_path, capsys):
    out = tmp_path / "c6.json"
    svg = tmp_path / "c6.svg"
    run(capsys, "gen", "complete", "6", "--seed", "3", "--out", str(out))
    code, stdout, _ = run(capsys, "build", str(out), "--svg", str(svg))
    assert code == 0
    content = svg.read_text()
    assert content.startswith("<svg ") or content.startswith("<svg\n")
    assert "<circle" in content and "<line" in content


def test_check_accept_and_reject(tmp_path, capsys):
    out = tmp_path / "c5.json"
    run(capsys, "gen", "complete", "5", "--seed", "1", "--out", str(out))
    star = json.dumps([[0, i] for i in range(1, 5)])
    code, stdout, _ = run(capsys, "check", str(out), star)
    assert code == 0 and "accepted" in stdout

    short = json.dumps([[0, 1], [1, 2]])
    code, stdout, _ = run(capsys, "check", str(out), short)
    assert code == 3 and "wrong-count" in stdout


def test_check_crossing_reports_witness(tmp_path, capsys):
    inst = path_complement(4)
    out = tmp_path / "t4c.json"
    dump_instance(inst.graph, str(out))
    # The two diagonals of the convex quadrilateral cross.
    candidate = json.dumps([[0, 2], [1, 3], [0, 1]])
    code, stdout, _ = run(capsys, "check", str(out), candidate)
    # (0,1) is a path edge, absent from the complement: not-subgraph wins.
    assert code == 3 and "not-subgraph" in stdout

    candidate = json.dumps([[0, 2], [1, 3], [0, 3]])
    code, stdout, _ = run(capsys, "check", str(out), candidate)
    assert code == 3
    assert "crossing" in stdout
    assert "witness=" in stdout


def test_check_rejects_a_self_loop_like_an_edge_outside_the_graph(tmp_path, capsys):
    out = tmp_path / "t4c.json"
    dump_instance(path_complement(4).graph, str(out))
    for candidate in ("[[1, 1]]", "[[0, 99]]"):
        code, stdout, _ = run(capsys, "check", str(out), candidate)
        assert (code, stdout) == (3, "rejected reason=not-subgraph\n")


def test_check_tree_from_file(tmp_path, capsys):
    out = tmp_path / "c5.json"
    run(capsys, "gen", "complete", "5", "--seed", "1", "--out", str(out))
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(json.dumps([[0, i] for i in range(1, 5)]))
    code, stdout, _ = run(capsys, "check", str(out), str(tree_file))
    assert code == 0 and "accepted" in stdout


def test_oracle_exit_codes(tmp_path, capsys):
    t6c = tmp_path / "t6c.json"
    run(capsys, "gen", "path-complement", "6", "--out", str(t6c))
    code, stdout, _ = run(capsys, "oracle", str(t6c))
    assert code == 3 and "not-exists" in stdout

    c10 = tmp_path / "c10.json"
    run(capsys, "gen", "complete", "10", "--seed", "2", "--out", str(c10))
    code, stdout, _ = run(capsys, "oracle", str(c10))
    assert code == 0 and "exists" in stdout

    code, stdout, _ = run(capsys, "oracle", str(c10), "--budget", "2")
    assert code == 4 and "budget-exceeded" in stdout


def test_a_negative_oracle_budget_exits_2(tmp_path, capsys):
    c5 = tmp_path / "c5.json"
    run(capsys, "gen", "complete", "5", "--out", str(c5))
    code, stdout, stderr = run(capsys, "oracle", str(c5), "--budget", "-1")
    assert (code, stdout) == (2, "")
    assert stderr == "error: oracle budget must be at least 0, got -1\n"
    code, stdout, _ = run(capsys, "oracle", str(c5), "--budget", "0")
    assert (code, stdout) == (4, "budget-exceeded nodes=1\n")


ORACLE_CHECKS_UNDER_O = """
import sys
from planetree import cli
from planetree.oracle import FOUND, OracleResult

print(__debug__)
for status, edges in ((FOUND, None), ("unknown", None), (FOUND, frozenset())):
    cli.has_plane_spanning_tree = lambda g, budget: OracleResult(status, edges, 0)
    try:
        code = cli.main(["oracle", sys.argv[1]])
    except AssertionError as err:
        print(status, err)
    else:
        print(status, "returned", code)
"""


def test_oracle_result_checks_raise_under_python_O(tmp_path, capsys):
    c5 = tmp_path / "c5.json"
    run(capsys, "gen", "complete", "5", "--out", str(c5))
    env = {**os.environ, "PYTHONPATH": str(Path(planetree.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", ORACLE_CHECKS_UNDER_O, str(c5)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert out == [
        "False",
        "found oracle reported a tree without a witness",
        "unknown unknown oracle status 'unknown'",
        "found oracle produced invalid tree: wrong-count",
    ]


def test_rotate_points_only(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    pts.write_text('{"points": [[0, 0], [10, 1], [4, 9], [7, 6], [2, 4]]}')
    code, stdout, _ = run(capsys, "rotate", str(pts))
    assert code == 0
    # The start line is reached again after 12 intermediate states, and
    # the half turn after 6.
    assert "states=24 " in stdout
    assert "opposite_index=6" in stdout
    assert "left_size=3" in stdout
    for line in stdout.splitlines():
        if line.startswith("kind=intermediate"):
            left = line.split("left=[")[1].split("]")[0]
            assert len(left.split(",")) == 3


# sha256 of the whole `planetree rotate` stdout: every state's kind, pivots
# and sides, and the closing line of counts.
ROTATE_GOLDEN = [
    pytest.param(
        lambda: r_construction(9)[1],
        "b9634428bd33802781da2675267d8bf672d428cba17230ca0955b381cc55bb1d",
        id="r_construction-9-complement",
    ),
    pytest.param(
        lambda: random_instance(12, 7),
        "670a921dc5e3c64ab5b9bd8c95e6d86dbf0be793899f1394d34b7cf75406aa7e",
        id="budgeted-12-7",
    ),
]


@pytest.mark.parametrize("make, digest", ROTATE_GOLDEN)
def test_rotate_output_is_byte_stable(make, digest, tmp_path, capsys):
    path = tmp_path / "instance.json"
    dump_instance(make().graph, str(path))
    code, stdout, _ = run(capsys, "rotate", str(path))
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == digest


def test_rotate_requires_points(tmp_path, capsys):
    bad = tmp_path / "empty.json"
    bad.write_text("{}")
    code, _, stderr = run(capsys, "rotate", str(bad))
    assert code == 1
    assert "points" in stderr


def test_batch_small_campaign(capsys):
    code, stdout, _ = run(
        capsys, "batch", "--trials", "6", "--n-range", "5:7", "--seed", "3"
    )
    assert code == 0
    assert "failures" in stdout
    last = stdout.strip().splitlines()[-1]
    assert last.split()[2] == "0"  # zero failures


def test_batch_counts_a_failed_invariant_as_a_failure(capsys, monkeypatch):
    def broken_build(g):
        raise AssertionError("sweep invariant")

    monkeypatch.setattr(cli, "build_plane_tree", broken_build)
    code, stdout, _ = run(
        capsys, "batch", "--trials", "2", "--n-range", "5:5", "--seed", "3"
    )
    assert code == 5
    lines = stdout.strip().splitlines()
    assert sum("FAILED" in line for line in lines) == 2
    assert lines[-1].split() == ["2", "0", "2", "0"]


def test_batch_zero_trials(capsys):
    code, stdout, _ = run(capsys, "batch", "--trials", "0")
    assert code == 0


def test_negative_trials_exit_2(capsys):
    code, stdout, stderr = run(capsys, "batch", "--trials", "-3")
    assert (code, stdout, stderr) == (2, "", "error: bad trials -3: need 0 or more\n")


def test_batch_base_case_sizes(capsys):
    code, stdout, _ = run(
        capsys, "batch", "--trials", "4", "--n-range", "3:4", "--seed", "1"
    )
    assert code == 0


@pytest.mark.parametrize(
    "n_range, detail",
    [
        ("9:5", "bad n-range '9:5'"),
        ("2:4", "bad n-range '2:4'"),
        ("a:b", "invalid literal for int() with base 10: 'a'"),
    ],
)
def test_every_bad_n_range_exits_2(capsys, n_range, detail):
    code, stdout, stderr = run(capsys, "batch", "--n-range", n_range)
    assert (code, stdout, stderr) == (2, "", f"error: {detail}\n")


def test_missing_file_exits_1(capsys):
    code, _, stderr = run(capsys, "stats", "/nonexistent/nope.json")
    assert code == 1
    assert "error" in stderr
