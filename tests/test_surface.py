"""The public surface: every public module-level name and public method of
src/modlab either has a caller in the package or is declared below with
the consumer outside the package that keeps it; and rows enter only where
the benchmark passes them, every other function taking record tables."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "modlab"

# Public names no package code references -> the consumer that keeps each.
# Methods are keyed by module and class.
OUTSIDE_CONSUMERS = {
    "eval.item_from_record": "perfbench corruption_ablation workload (setup)",
    "eval.predict": "perfbench traced span eval.predict",
    "experiments.HALLUCINATION_BENCHMARK": "perfbench experiment workload",
    "experiments.SHIFT_ANALYSIS": "the shift-analysis experiment (acceptance criterion 7)",
    "experiments.run_benchmark": "perfbench experiment workload",
    "policy.GradAccumulator.add": "perfbench traced span policy.grad_accumulate",
    "policy.forward_logprobs": "perfbench traced span policy.forward_logprobs",
    "synth.assemble_eval_items": "perfbench traced span synth.assemble_eval_items",
    "synth.generate_eval_records": "perfbench corruption_ablation workload (setup)",
    "synth.pair_record": "perfbench experiment workload (dataset check)",
}

# The functions that stack a list of rows into a table (``coerce``) -> the
# perfbench consumer that passes them rows.
ROW_ENTRY_POINTS = {
    "eval.evaluate": "corruption_ablation workload (a list of EvalItem rows)",
    "eval.predict": "traced span eval.predict (one EvalItem)",
    "synth.dataset_stats": "experiment workload (the captured rows of generate_pairs)",
    "synth.pair_record": "experiment workload (one captured row)",
}


def _references(trees) -> set:
    """Every name package code reads: loaded names, names imported from the
    package, attributes of anything but a module imported from outside it,
    and string constants (getattr-style lookups)."""
    outside = {alias.asname or alias.name.split(".")[0] for tree in trees
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    refs = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.add(node.id)
            elif isinstance(node, ast.ImportFrom) and node.level:
                refs.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and not (
                    isinstance(node.value, ast.Name) and node.value.id in outside):
                refs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.add(node.value)
    return refs


def _public_definitions(module: str, tree) -> dict:
    """{qualified name: bare name} of a module's public top-level names and
    the public methods of its classes."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            names = []
        out.update({f"{module}.{n}": n for n in names if not n.startswith("_")})
        if isinstance(node, ast.ClassDef):
            out.update({f"{module}.{node.name}.{item.name}": item.name for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")})
    return out


def unreferenced() -> list:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    refs = _references(trees.values())
    return sorted(qualified for module, tree in trees.items()
                  for qualified, name in _public_definitions(module, tree).items()
                  if name not in refs)


def test_every_public_name_has_a_caller_or_a_declared_consumer():
    found = unreferenced()
    new = [name for name in found if name not in OUTSIDE_CONSUMERS]
    assert not new, f"public name(s) with no caller in src/ and no declared consumer: {new}"
    stale = sorted(set(OUTSIDE_CONSUMERS) - set(found))
    assert not stale, f"declared consumer(s) of names that now have a caller or are gone: {stale}"


def test_the_scan_sees_a_name_without_a_caller():
    trees = [ast.parse("import numpy as np\n\ndef used():\n    return np.add\n\n"
                       "def unused():\n    return used()\n")]
    refs = _references(trees)
    assert "used" in refs and "unused" not in refs and "add" not in refs


def coerce_callers(module: str, tree) -> set:
    """Qualified names of the module's functions and methods (keyed by
    class) whose body calls ``.coerce(``."""
    defs = [(f"{module}.{node.name}", node) for node in tree.body
            if isinstance(node, ast.FunctionDef)]
    defs += [(f"{module}.{node.name}.{item.name}", item) for node in tree.body
             if isinstance(node, ast.ClassDef) for item in node.body
             if isinstance(item, ast.FunctionDef)]
    return {name for name, node in defs for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and call.func.attr == "coerce"}


def test_rows_enter_only_at_the_declared_entry_points():
    found = set().union(*(coerce_callers(path.stem, ast.parse(path.read_text(encoding="utf-8")))
                          for path in sorted(SRC.glob("*.py"))))
    assert found == set(ROW_ENTRY_POINTS), (
        f"undeclared: {sorted(found - set(ROW_ENTRY_POINTS))}; "
        f"declared but not stacking rows: {sorted(set(ROW_ENTRY_POINTS) - found)}")


def test_the_scan_sees_a_coerce_call():
    tree = ast.parse("def entry(rows):\n    return Table.coerce(rows)\n\n"
                     "def inner(table):\n    return table.audio\n\n"
                     "class Table:\n    def one(self, row):\n        return self.coerce([row])\n")
    assert coerce_callers("m", tree) == {"m.entry", "m.Table.one"}
