"""Brownian paths have one stepping loop: in ``brownian.py`` only the path
runner ``_walk`` calls ``.advance(``, and no class defines ``drift`` (each
engine's ``renormalize`` returns the drift it measured).  The draws have
one place each: ``standard_normal`` appears only in ``_flat_draw`` (the
exact flat endpoints) and in ``_walk`` (the torus endpoint), and the
group-side sign draw ``_signs`` only in ``_walk``.  ``_TorusEngine`` is
named only in ``_ENGINES``, so no estimator grows its own torus branch.
That a torus walk is one step is stated once, in ``SdeConfig.n_steps``:
``math.fsum`` appears nowhere, and ``is_abelian`` is read only there, in
``_walk`` (normals or signs) and in ``conjugacy_coordinate`` (the
membership checks).  The step exponential
``_exp_minus_i`` is named only in ``_SunEngine.step``, so the su<n> step
is the one place an increment is exponentiated, and an engine's ``.step(``
is called only in ``_Chunk.advance``, so every sign row takes the one route
of table gathers and no second stepping route grows elsewhere.

The check parses the module and names the enclosing function of every
``.advance(`` call, of every mention of a draw, of ``_TorusEngine`` (at
module level, the name it is assigned to), of ``fsum`` and of
``is_abelian``, the enclosing method, with its class, of every mention of
``_exp_minus_i`` and of every ``.step(`` call, and every class that defines
``drift``.
"""

import ast
from pathlib import Path

from wrapkit import brownian


def _enclosing(tree, hit, qualified=False):
    """(enclosing function, line) of each node for which hit(node) holds;
    qualified names a function inside a class ``Class.function``."""
    found = []

    def visit(node, func, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = f"{cls}.{node.name}" if qualified and cls else node.name
        if hit(node):
            found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func, cls)

    visit(tree, None, None)
    return found


def _advance_callers(tree):
    """(enclosing function, line) of each call to an ``advance`` attribute."""
    return _enclosing(tree, lambda node: isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "advance")


def _step_callers(tree):
    """(enclosing method with its class, line) of each call to a ``step`` attribute."""
    return _enclosing(tree, lambda node: isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "step", qualified=True)


def _mentions(tree, name, qualified=False):
    """(enclosing function, line) of each plain name or attribute ``name``."""
    return _enclosing(tree, lambda node: (isinstance(node, ast.Name) and node.id == name)
                      or (isinstance(node, ast.Attribute) and node.attr == name), qualified)


def _naming_sites(tree, name):
    """(enclosing function, line) of each mention of ``name``; at module
    level the enclosing name is the plain name the statement assigns."""
    sites = []
    for stmt in tree.body:
        owner = (stmt.targets[0].id if isinstance(stmt, ast.Assign)
                 and isinstance(stmt.targets[0], ast.Name) else None)
        sites += [(func or owner, line) for func, line
                  in _mentions(ast.Module(body=[stmt], type_ignores=[]), name)]
    return sites


def _drift_classes(tree):
    return [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            and any(isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name == "drift" for item in node.body)]


def _tree():
    return ast.parse(Path(brownian.__file__).read_text())


def test_only_the_path_runner_advances_chunks():
    callers = _advance_callers(_tree())
    assert callers, "the path runner no longer advances any chunk"
    assert [f"line {line} in {func}" for func, line in callers if func != "_walk"] == []


def test_normals_are_drawn_only_for_flat_endpoints_and_torus_steps():
    assert ({func for func, _ in _mentions(_tree(), "standard_normal")}
            == {"_flat_draw", "_walk"})


def test_only_the_path_runner_draws_group_increments():
    assert {func for func, _ in _mentions(_tree(), "_signs")} == {"_walk"}


def test_only_the_engine_table_names_the_torus_engine():
    assert {func for func, _ in _naming_sites(_tree(), "_TorusEngine")} == {"_ENGINES"}


def test_only_the_step_count_states_the_one_torus_step():
    tree = _tree()
    assert _mentions(tree, "fsum") == []
    assert ({func for func, _ in _mentions(tree, "is_abelian")}
            == {"n_steps", "_walk", "conjugacy_coordinate"})


def test_the_one_step_guard_sees_stray_sums_and_abelian_tests():
    code = (
        'class SdeConfig:\n'
        '    def n_steps(self):\n'
        '        return 1 if self.group.is_abelian else 2\n'
        'def _walk(g, steps):\n'
        '    steps = [math.fsum(steps)] if g.is_abelian else steps\n'
        '    return fsum(steps)\n'
        'ABELIAN = [g for g in GROUPS if g.is_abelian]\n'
    )
    tree = ast.parse(code)
    assert [f for f, _ in _mentions(tree, "fsum")] == ["_walk", "_walk"]
    assert [f for f, _ in _mentions(tree, "is_abelian")] == ["n_steps", "_walk", None]


def test_the_torus_guard_sees_stray_branches():
    code = (
        '_ENGINES = {"torus": _TorusEngine}\n'
        'def _walk(chunks):\n'
        '    return all(isinstance(e, _TorusEngine) for e in chunks)\n'
        'def mc_expect(chunk):\n'
        '    if isinstance(chunk.engines[0], brownian._TorusEngine):\n'
        '        return 0.0\n'
        'class _Chunk:\n'
        '    kind = _TorusEngine\n'
        '    def advance(self):\n'
        '        return _TorusEngine(self, 0)\n'
        '_ENGINES["torus2"] = _TorusEngine\n'
        'TORUS = _TorusEngine\n'
    )
    assert [f for f, _ in _naming_sites(ast.parse(code), "_TorusEngine")] == [
        "_ENGINES", "_walk", "mc_expect", None, "advance", None, "TORUS"]


def test_only_the_sun_step_exponentiates_increments():
    assert [f for f, _ in _mentions(_tree(), "_exp_minus_i", qualified=True)] == [
        "_SunEngine.step"]


def test_the_step_exponential_guard_sees_stray_call_sites():
    code = (
        'def _exp_minus_i(a):\n'
        '    return a\n'
        'class _SunEngine:\n'
        '    def step(self, z):\n'
        '        self.m = self.m @ _exp_minus_i(z)\n'
        'class _Table:\n'
        '    def step(self, z):\n'
        '        return brownian._exp_minus_i(z)\n'
        'def step(z):\n'
        '    return _exp_minus_i(z)\n'
        'EXP = _exp_minus_i\n'
    )
    assert [f for f, _ in _mentions(ast.parse(code), "_exp_minus_i", qualified=True)] == [
        "_SunEngine.step", "_Table.step", "step", None]


def test_only_the_chunk_steps_engines():
    callers = _step_callers(_tree())
    assert callers, "no chunk steps an engine any more"
    assert [f"line {line} in {func}" for func, line in callers
            if func != "_Chunk.advance"] == []


def test_the_engine_step_guard_sees_stray_routes():
    code = (
        'class _Chunk:\n'
        '    def advance(self, z, sqh):\n'
        '        self.tables[0, sqh].step(z, sqh)\n'
        '        self.engines[0].step(z, sqh)\n'
        '    def direct(self, z, sqh):\n'
        '        for eng in self.engines:\n'
        '            eng.step(z, sqh)\n'
        'class _SunEngine:\n'
        '    def step(self, z, sqh):\n'
        '        self.m = self.m @ _exp_minus_i(z)\n'
        'def _walk(chunk, z):\n'
        '    chunk.engines[0].step(z, 0.1)\n'
        '    return cfg.step\n'
        'STEP = engine.step\n'
        'engine.step(z, 0.1)\n'
    )
    assert [f for f, _ in _step_callers(ast.parse(code))] == [
        "_Chunk.advance", "_Chunk.advance", "_Chunk.direct", "_walk", None]


def test_no_engine_defines_drift():
    assert _drift_classes(_tree()) == []


def test_the_guard_sees_stray_loops_and_drift_methods():
    code = (
        'def _walk(chunk, z):\n'
        '    chunk.advance(z, 0.1)\n'
        'def worker(trio, zs):\n'
        '    for chunk, z in zip(trio, zs):\n'
        '        chunk.advance(z, 0.1)\n'
        '    return [c.advance for c in trio]\n'
        'class _Engine:\n'
        '    def drift(self):\n'
        '        return 0.0\n'
        'class _Other:\n'
        '    def renormalize(self):\n'
        '        return 0.0\n'
        'trio[0].advance(z, 0.2)\n'
        'def _flat_draw(rng):\n'
        '    return rng.standard_normal(3)\n'
        'def _walk2(rng, draw=np.random.standard_normal):\n'
        '    return _signs(rng, (1, 2)), draw(2)\n'
        'signs = _signs\n'
    )
    tree = ast.parse(code)
    assert [f for f, _ in _advance_callers(tree)] == ["_walk", "worker", None]
    assert [f for f, _ in _mentions(tree, "standard_normal")] == ["_flat_draw", "_walk2"]
    assert [f for f, _ in _mentions(tree, "_signs")] == ["_walk2", None]
    assert _drift_classes(tree) == ["_Engine"]
