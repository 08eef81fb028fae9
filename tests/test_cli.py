import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import fourcolor
from fourcolor import Coloring, emit_edge_list, emit_graph6, parse_graph6, verify_coloring
from fourcolor.cli import main
from fourcolor.lab import c5_blowup, construction


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


W5_G6 = "Ehfw"
P5_G6 = "DhC"
C7BAR_G6 = "FUzro"


def test_frozen_graph6_tokens():
    assert emit_graph6(construction("W5")) == W5_G6
    assert emit_graph6(construction("C7-complement")) == C7BAR_G6


def test_color_wheel():
    code, out = run_cli(["color", "--in", W5_G6])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k=4"
    assignment = {int(a): int(b) for a, b in (ln.split() for ln in lines[1:])}
    g = parse_graph6(W5_G6)
    coloring = Coloring(tuple(assignment[v] for v in range(g.n)), 4)
    assert verify_coloring(g, coloring) is None


def test_color_rejects_with_witness_and_exit_1(capsys):
    code, out = run_cli(["color", "--in", P5_G6])
    assert code == 1
    assert "2P2" in capsys.readouterr().err


def test_color_trace_lines():
    code, out = run_cli(["color", "--in", W5_G6, "--trace"])
    assert code == 0
    trace = [ln for ln in out.splitlines() if ln.startswith("lemma=")]
    assert trace == ["lemma=w5 case=w5/hub anchor=0,1,2,3,4,5"]


def test_detect_porcelain_golden():
    code, out = run_cli(["detect", "--pattern", "2p2", "--in", P5_G6, "--porcelain"])
    assert code == 0
    assert out == "pattern=2P2 found=true witness=0,1,3,4\n"
    code, out = run_cli(["detect", "--pattern", "K4", "--in", W5_G6])
    assert code == 0
    assert out == "absent\n"


def test_oracle_c7bar():
    code, out = run_cli(["oracle", "--in", C7BAR_G6])
    assert code == 0
    assert out.splitlines()[0] == "chi=4"


def test_oracle_guard_exit_1():
    from fourcolor import empty

    code, _ = run_cli(["oracle", "--in", emit_graph6(empty(30))])
    assert code == 1
    code, _ = run_cli(["oracle", "--in", emit_graph6(empty(30)), "--limit", "31"])
    assert code == 0


def test_oracle_on_a_large_clique_file(tmp_path):
    from fourcolor import complete

    graph_file = tmp_path / "k1100.g6"
    graph_file.write_text(emit_graph6(complete(1100)) + "\n")
    code, out = run_cli(["oracle", "--limit", "1200", "--in", str(graph_file)])
    assert code == 0
    assert out.splitlines()[0] == "chi=1100"


def test_verify_roundtrip(tmp_path):
    graph_file = tmp_path / "w5.g6"
    graph_file.write_text(W5_G6 + "\n")
    code, out = run_cli(["color", "--in", str(graph_file)])
    assignment = tmp_path / "colors.txt"
    assignment.write_text("\n".join(out.splitlines()[1:]) + "\n")
    code, out = run_cli(["verify", "--in", str(graph_file), "--assignment", str(assignment)])
    assert code == 0 and out == "ok\n"
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(f"{v} 1" for v in range(6)) + "\n")
    code, out = run_cli(["verify", "--in", str(graph_file), "--assignment", str(bad), "--porcelain"])
    assert code == 1
    assert out == "ok=false edge=0,1\n"


def test_verify_rejects_a_vertex_assigned_twice(tmp_path):
    # The first line clashes with vertex 1; the second must not hide it.
    twice = tmp_path / "twice.txt"
    twice.write_text("0 1\n0 2\n1 1\n")
    code, out = run_cli(["verify", "--in", "A_", "--assignment", str(twice)])
    assert code == 2 and out == ""


def test_verify_rejects_a_color_below_one(tmp_path):
    negative = tmp_path / "negative.txt"
    negative.write_text("0 1\n1 -3\n")
    code, out = run_cli(["verify", "--in", "A_", "--assignment", str(negative)])
    assert code == 2 and out == ""
    zero = tmp_path / "zero.txt"
    zero.write_text("0 0\n1 1\n")
    code, out = run_cli(["verify", "--in", "A_", "--assignment", str(zero)])
    assert code == 2 and out == ""


def test_verify_missing_assignment_is_usage_error():
    code, _ = run_cli(["verify", "--in", W5_G6, "--assignment", "/nonexistent/file"])
    assert code == 2


def test_edge_list_input(tmp_path):
    g = construction("W5")
    f = tmp_path / "w5.edges"
    f.write_text(emit_edge_list(g))
    code, out = run_cli(["color", "--in", str(f)])
    assert code == 0 and out.splitlines()[0] == "k=4"


def test_inline_token_longer_than_a_file_name():
    g = c5_blowup((12,) * 5)
    token = emit_graph6(g)
    assert len(token) > 255
    code, out = run_cli(["color", "--in", token])
    assert code == 0
    colors = tuple(int(ln.split()[1]) for ln in out.splitlines()[1:])
    assert verify_coloring(g, Coloring(colors, 4)) is None


def test_oversized_header_exits_1(tmp_path):
    from fourcolor.graph import MAX_N

    f = tmp_path / "huge.edges"
    f.write_text(f"{MAX_N + 1} 0\n")
    code, _ = run_cli(["color", "--in", str(f)])
    assert code == 1


def test_malformed_graph_is_usage_error():
    code, _ = run_cli(["color", "--in", "D" + chr(200)])
    assert code == 2


def test_generate_requires_seed():
    with pytest.raises(SystemExit) as err:
        run_cli(["generate", "--n", "8"])
    assert err.value.code == 2


def test_generate_is_reproducible_and_certified():
    code, out1 = run_cli(["generate", "--n", "9", "--seed", "5"])
    assert code == 0
    _, out2 = run_cli(["generate", "--n", "9", "--seed", "5"])
    assert out1 == out2
    g = parse_graph6(out1.strip())
    from fourcolor import certify_class

    assert g.n == 9 and certify_class(g, ("2P2", "K4")) is None


def test_generate_manifest_and_porcelain():
    code, out = run_cli(["generate", "--n", "6", "--seed", "3", "--count", "2"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    seed, n, cls, g6 = lines[0].split(",")
    assert (seed, n, cls) == ("3", "6", "2p2k4free")
    code, out = run_cli(["generate", "--n", "6", "--seed", "3", "--porcelain"])
    assert out.startswith("seed=3 n=6 class=2p2k4free graph6=")


@pytest.mark.parametrize(
    "start, n, code",
    [("C~", 10, 1), ("?", 10, 1), ("HCrfdxz", 5, 1), ("Bww", 10, 2)],
)
def test_generate_bad_planted_start_exit_codes(start, n, code):
    assert run_cli(["generate", "--method", f"planted:{start}", "--n", str(n), "--seed", "1"])[0] == code


def test_generate_construction_of_the_wrong_size_exits_1(capsys):
    # A construction ignores --n; printing it would record n=40 for a 6-vertex graph.
    argv = ["generate", "--n", "40", "--seed", "1", "--method", "W5", "--count", "2"]
    assert run_cli(argv) == (1, "")
    assert "construction W5 has 6 vertices, target n=40" in capsys.readouterr().err
    assert run_cli(["generate", "--n", "6", "--seed", "1", "--method", "W5"]) == (0, W5_G6 + "\n")


def test_partition_c5_porcelain():
    code, out = run_cli(["partition", "--anchor", "c5", "--in", W5_G6, "--porcelain"])
    assert code == 0
    lines = out.splitlines()
    assert "set=cycle members=0,1,2,3,4" in lines
    assert "set=U members=5" in lines
    assert all(
        "holds=true" in ln for ln in lines if ln.startswith("property=")
    )


def test_partition_h1():
    from fourcolor import PATTERNS

    code, out = run_cli(["partition", "--anchor", "h1", "--in", emit_graph6(PATTERNS["H1"].model)])
    assert code == 0
    assert any(ln.startswith("W:") for ln in out.splitlines())


def test_approx_cli():
    code, out = run_cli(["approx", "--in", emit_graph6(construction("C5")), "--porcelain"])
    assert code == 0
    first = out.splitlines()[0]
    assert first.startswith("k=") and "pairing=" in first
    code, _ = run_cli(["approx", "--in", "Cl"])  # the four-cycle is excluded
    assert code == 1


def test_closed_stdout_exits_141_without_a_message(tmp_path):
    # With stdout buffered, 3000 vertices print past the buffer, so the pipe
    # breaks mid-run; W5's few lines break it at the final flush.
    blowup = tmp_path / "blowup3000.g6"
    blowup.write_text(emit_graph6(c5_blowup((600,) * 5)) + "\n")
    env = dict(os.environ, PYTHONPATH=str(Path(fourcolor.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    for spec in (W5_G6, str(blowup)):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write
        try:
            done = subprocess.run(
                [sys.executable, "-c", "from fourcolor.cli import run; run()", "color", "--in", spec],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (141, b"")


def test_suite_single_criterion():
    code, out = run_cli(["suite", "--only", "A1", "--porcelain"])
    assert code == 0
    assert out.splitlines()[0].startswith("criterion=A1 passed=true")


def test_suite_unknown_criterion_is_usage_error():
    with pytest.raises(SystemExit) as err:
        run_cli(["suite", "--only", "A99"])
    assert err.value.code == 2


def test_undecodable_input_file_is_usage_error(tmp_path):
    raw = tmp_path / "raw.bin"
    raw.write_bytes(b"\xff\xfe\x00")
    code, _ = run_cli(["color", "--in", str(raw)])
    assert code == 2
    code, _ = run_cli(["verify", "--in", W5_G6, "--assignment", str(raw)])
    assert code == 2
