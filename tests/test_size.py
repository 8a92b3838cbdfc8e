"""Size ceilings for ``src/fiem``, in counts that layout cannot move.

Three counts over ``src/fiem/*.py``, each held at or under a ceiling:

- statements: ``ast.stmt`` nodes, docstrings excluded;
- code tokens: ``tokenize`` tokens without comments, docstrings and the
  layout tokens (NL, NEWLINE, INDENT, DEDENT, ENDMARKER); an f-string counts
  as one token, as Python before 3.12 tokenizes it;
- public names: the module-level ``def``, ``class`` and assignment targets
  that do not start with an underscore, outside ``__init__``.

A change that lowers a count lowers its ceiling here.  A change that must
raise one states the counts before and after in ``CHANGES.md``, with the
measured gain that pays for them.
"""
import ast
import io
import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "fiem"

CEILINGS = {"statements": 1732, "tokens": 20545, "public names": 120}

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}
# Python 3.12 splits an f-string into these and the tokens of its fields
_FSTRING_START = getattr(tokenize, "FSTRING_START", None)
_FSTRING_END = getattr(tokenize, "FSTRING_END", None)


def _code_tokens(source: str, docstrings) -> int:
    spans = [((d.lineno, d.col_offset), (d.end_lineno, d.end_col_offset)) for d in docstrings]
    count = depth = 0
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == _FSTRING_START:
            count += depth == 0
            depth += 1
        elif tok.type == _FSTRING_END:
            depth -= 1
        elif depth == 0 and tok.type not in _LAYOUT:
            count += not (tok.type == tokenize.STRING
                          and any(a <= tok.start and tok.end <= b for a, b in spans))
    return count


def _public_names(tree: ast.Module) -> int:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return sum(not name.startswith("_") for name in names)


def counts(path: Path) -> dict:
    """The three counts of one module."""
    source = path.read_text()
    tree = ast.parse(source)
    docstrings = [node.body[0] for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None]
    return {"statements": sum(isinstance(node, ast.stmt) for node in ast.walk(tree)) - len(docstrings),
            "tokens": _code_tokens(source, docstrings),
            "public names": 0 if path.name == "__init__.py" else _public_names(tree)}


def _table(modules: dict, totals: dict) -> str:
    rows = [("module", *CEILINGS)] + [(name, *c.values()) for name, c in modules.items()]
    rows += [("total", *totals.values()), ("ceiling", *CEILINGS.values())]
    width = max(len(str(cell)) for row in rows for cell in row)
    return "\n".join(f"{row[0]:<{width}}" + "".join(f"{cell:>{width + 2}}" for cell in row[1:])
                     for row in rows)


def test_source_stays_within_its_ceilings():
    modules = {path.name: counts(path) for path in sorted(SOURCE.glob("*.py"))}
    totals = {key: sum(c[key] for c in modules.values()) for key in CEILINGS}
    over = [key for key in CEILINGS if totals[key] > CEILINGS[key]]
    assert not over, f"src/fiem is over its ceiling on {', '.join(over)}:\n" + _table(modules, totals)


def test_the_counts_skip_layout_comments_and_docstrings(tmp_path):
    module = tmp_path / "m.py"
    module.write_text('"""Doc."""\nimport os\n\n\nclass _C:\n    """Doc."""\n\n    x = 1  # note\n\n\n'
                      'def f(a):\n    return f"{a}!"\n\n\nA, (B, _c) = 1, (2, 3)\n')
    # import, class, x = 1, def, return, the tuple assignment
    assert counts(module) == {"statements": 6, "tokens": 31, "public names": 3}
