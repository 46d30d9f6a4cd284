"""Formula node classes: dataclass behaviour, and the tree sizes read through it."""

import dataclasses
import importlib.util
import random
from pathlib import Path

import pytest

from conftest import gen_formula, gen_interval
from metricht import fom, syntax
from metricht.rewrite import printed_size

P, Q, X = syntax.Atom("p"), syntax.Atom("q"), fom.Var("x")
IV = syntax.Interval(1, 3)
PX = fom.Pred("p", X)

# (class, its fields' values, the repr of a node built from them)
NODES = [
    (syntax.Atom, ("p",), "Atom(name='p')"),
    (syntax.Bottom, (), "Bottom()"),
    *[(cls, (P, Q), f"{cls.__name__}(lhs=Atom(name='p'), rhs=Atom(name='q'))")
      for cls in (syntax.And, syntax.Or, syntax.Implies)],
    *[(cls, (IV, P), f"{cls.__name__}(interval=Interval(lower=1, upper=3), arg=Atom(name='p'))")
      for cls in (syntax.Next, syntax.Prev)],
    *[(cls, (IV, P, Q), f"{cls.__name__}(interval=Interval(lower=1, upper=3), "
                        "lhs=Atom(name='p'), rhs=Atom(name='q'))")
      for cls in (syntax.Until, syntax.Release, syntax.Since, syntax.Trigger)],
    (fom.Top, (), "Top()"),
    (fom.Bot, (), "Bot()"),
    (fom.Pred, ("p", X), "Pred(name='p', arg=Var(name='x'))"),
    (fom.Diff, (X, -2, fom.Point(5)),
     "Diff(left=Var(name='x'), delta=-2, right=Point(value=5))"),
    *[(cls, (PX, fom.TOP), f"{cls.__name__}(lhs=Pred(name='p', arg=Var(name='x')), rhs=Top())")
      for cls in (fom.And, fom.Or, fom.Implies)],
    *[(cls, (X, PX), f"{cls.__name__}(var=Var(name='x'), body=Pred(name='p', arg=Var(name='x')))")
      for cls in (fom.Forall, fom.Exists)],
]

FIELDS = {"Atom": ["name"], "Bottom": [], "Top": [], "Bot": [], "Pred": ["name", "arg"],
          "Diff": ["left", "delta", "right"], "And": ["lhs", "rhs"], "Or": ["lhs", "rhs"],
          "Implies": ["lhs", "rhs"], "Next": ["interval", "arg"], "Prev": ["interval", "arg"],
          "Forall": ["var", "body"], "Exists": ["var", "body"],
          **dict.fromkeys(["Until", "Release", "Since", "Trigger"], ["interval", "lhs", "rhs"])}


def test_every_node_class_is_listed():
    public = {cls for module, base in ((syntax, syntax.Formula), (fom, fom.FOMFormula))
              for name, cls in vars(module).items()
              if isinstance(cls, type) and issubclass(cls, base) and cls is not base
              and not name.startswith("_")}
    assert public == {cls for cls, _, _ in NODES}
    assert all(dataclasses.is_dataclass(cls) for cls in public)


@pytest.mark.parametrize("cls,values,text", NODES, ids=lambda v: getattr(v, "__qualname__", ""))
def test_formula_nodes_behave_as_dataclasses(cls, values, text):
    node, twin = cls(*values), cls(*values)
    assert node is not twin and node == twin and hash(node) == hash(twin)
    assert repr(node) == text
    assert [f.name for f in dataclasses.fields(node)] == FIELDS[cls.__name__]
    # a class of the same field layout never equals it
    for other, other_values, _ in NODES:
        if other is not cls and other_values == values:
            assert node != other(*values) and other(*values) != node
    if values:
        first = dataclasses.fields(node)[0].name
        changed = dataclasses.replace(node, **{first: values[-1]})
        assert type(changed) is cls and getattr(changed, first) is values[-1]
        with pytest.raises(AttributeError):  # FrozenInstanceError
            setattr(node, first, values[-1])
    # a new attribute: AttributeError, or on some Python versions TypeError
    # from the __setattr__ generated for a slotted frozen dataclass
    with pytest.raises((AttributeError, TypeError)):
        node.extra = 1
    assert node == twin


def _bench_tree_size():
    """bench/tracer.tree_size, loaded from its file so that no bench module shadows a test's."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.tree_size


def _fom_size(sentence) -> int:
    """First-order nodes per use, by each shape's own operands."""
    size, stack = 0, [sentence]
    while stack:
        node = stack.pop()
        size += 1
        if isinstance(node, (fom.And, fom.Or, fom.Implies)):
            stack += [node.lhs, node.rhs]
        elif isinstance(node, (fom.Forall, fom.Exists)):
            stack.append(node.body)
    return size


def test_bench_tree_size_agrees_with_the_program():
    # the benchmark counts parser, rewrite and translation nodes through
    # dataclasses.fields; `rewrite.printed_size` counts formula nodes through postorder
    tree_size = _bench_tree_size()
    rng = random.Random(16)
    nonempty = lambda r: gen_interval(r, nonempty_only=True)
    for _ in range(300):
        phi = gen_formula(rng, rng.randint(0, 5), interval=nonempty)
        assert tree_size(phi, syntax.Formula) == printed_size(phi)
        for sentence in (fom.translate(phi, 0), fom.simplify_fom(fom.translate(phi, 0))):
            assert tree_size(sentence, fom.FOMFormula) == _fom_size(sentence)
