"""The package holds no dead code: every public top-level definition in
``src/lossylab`` is reached from the ``lossylab`` command or from the
benchmark's checker, or is a paper-claim check that waits for its suite.

Reachability is a walk over names: a definition reaches every top-level
definition of its module, and every name imported into it, that its
source mentions. A class reaches what any of its methods mention. A public
method counts as reached when reached code names it as an attribute
(``x.name``); a method that shares its name with a reached one escapes.
"""

import ast
from pathlib import Path

import lossylab

PACKAGE = Path(lossylab.__file__).parent

# the command's entry point, and the four names perfbench/child.py's
# CheckContext calls
ROOTS = {
    ("cli", "main"),
    ("fock", "DensityOperator"),
    ("fock", "displacement_matrix"),
    ("phasespace", "wigner_from_parity"),
    ("purity", "purity_polynomial"),
}

QUASIPROB_SUITE = "ROADMAP item 5: the quasiprobability verify suite"
SIMILARITY_SUITE = "ROADMAP item 6: the similarity verify suite"
TRUNCATION_REPORT = "ROADMAP item 7: truncation reporting"
AWAITING_SUITE = {
    ("inequalities", "husimi_pair_check"): QUASIPROB_SUITE,
    ("inequalities", "husimi_pair_from_states"): QUASIPROB_SUITE,
    ("inequalities", "isotropic_gaussian"): QUASIPROB_SUITE,
    ("inequalities", "order_pair_overlap_check"): QUASIPROB_SUITE,
    ("inequalities", "order_pair_overlap_identity"): QUASIPROB_SUITE,
    ("purity", "overlap_polynomial"): SIMILARITY_SUITE,
    ("purity", "hs_overlap"): SIMILARITY_SUITE,
    ("purity", "lossy_overlap"): SIMILARITY_SUITE,
    ("purity", "mutual_information_bs"): SIMILARITY_SUITE,
    ("fock", "PureState.truncation_warning"): TRUNCATION_REPORT,
}


def _package_graph():
    """(definitions, edges): every top-level def, class and assigned name
    of each module as (module, name), and the definitions each one names."""
    nodes, imports = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        imports[module] = {}
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                nodes[(module, node.name)] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            nodes[(module, name.id)] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imports[module][alias.asname or alias.name] = (node.module, alias.name)
    edges = {}
    for (module, name), node in nodes.items():
        mentioned = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        edges[(module, name)] = ({(module, m) for m in mentioned if (module, m) in nodes}
                                 | {imports[module][m] for m in mentioned
                                    if m in imports[module]})
    return nodes, edges


def _reached(roots, edges) -> set:
    seen, stack = set(), list(roots)
    while stack:
        key = stack.pop()
        if key not in seen and key in edges:
            seen.add(key)
            stack.extend(edges[key])
    return seen


def _public_definitions(nodes) -> set:
    return {key for key, node in nodes.items()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not key[1].startswith("_") and key[0] not in ("__init__", "__main__")}


def _public_methods(nodes) -> set:
    """(module, "Class.method") of every public method of every class."""
    return {(module, f"{name}.{item.name}")
            for (module, name), node in nodes.items() if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not item.name.startswith("_")}


def _reached_with_methods(roots, nodes, edges) -> set:
    """The definitions reached from roots, and the public methods that
    reached code names as attributes."""
    reached = _reached(roots, edges)
    named = {n.attr for key in reached for n in ast.walk(nodes[key])
             if isinstance(n, ast.Attribute)}
    return reached | {(m, q) for m, q in _public_methods(nodes)
                      if q.split(".")[1] in named}


def test_every_public_definition_is_reached():
    nodes, edges = _package_graph()
    roots = ROOTS | set(AWAITING_SUITE)
    reached = _reached_with_methods(roots, nodes, edges) | roots
    public = _public_definitions(nodes) | _public_methods(nodes)
    dead = sorted(f"{m}.{n}" for m, n in public - reached)
    assert dead == [], ("reached by neither the command, the benchmark's checker "
                        "nor a check awaiting its suite: delete them, or move "
                        "test oracles to tests/conftest.py")


def test_awaiting_suite_list_is_current():
    # an entry the command already reaches, or one that is gone, is stale
    nodes, edges = _package_graph()
    public = _public_definitions(nodes) | _public_methods(nodes)
    reached = _reached_with_methods(ROOTS, nodes, edges)
    stale = sorted(f"{m}.{n}" for m, n in AWAITING_SUITE
                   if (m, n) not in public or (m, n) in reached)
    assert stale == []
