"""Every line of the package and of tools/ fits in 100 characters."""

import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
LIMIT = 100


def long_lines(root, paths) -> list:
    """'<file under root>:<line>: <n> characters' for each line of paths
    over LIMIT."""
    return [f"{path.relative_to(root)}:{number}: {len(line)} characters"
            for path in paths
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > LIMIT]


def test_no_line_of_src_or_tools_is_over_the_limit():
    paths = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tools").glob("*.py")])
    assert paths
    found = long_lines(ROOT, paths)
    assert not found, f"lines over {LIMIT} characters: {found}"


def test_the_scan_names_the_file_and_line(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("x = 1\n" + "y" * LIMIT + "\n" + "z" * (LIMIT + 1) + "\n", encoding="utf-8")
    assert long_lines(tmp_path, [path]) == [f"module.py:3: {LIMIT + 1} characters"]
