import ast
import os
import pathlib
import subprocess
import sys

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "planeparts"


def test_package_imports_only_the_standard_library():
    # no runtime dependencies: every import is relative or of a standard module
    files = sorted(SOURCE.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


def test_import_loads_no_dataclasses_inspect_or_typing():
    # these three cost most of a cold start; -S keeps a site .pth from
    # loading any of them before the package does
    child = (
        "import sys; import planeparts, planeparts.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(SOURCE.parent)}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", child], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
