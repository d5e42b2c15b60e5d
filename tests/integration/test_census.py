"""The dead-code census resolves ``self.``, ``cls.`` and ``Class.``
receivers and bare names, so a method whose name another class shares
is still found when only that other class's method is called."""

import textwrap

from benchmarks.census import census

SHAPES = '''
class Square:
    def area(self):
        return self.side() ** 2

    def side(self):
        return 1.0

    @classmethod
    def unit(cls):
        return cls.make()

    @staticmethod
    def make():
        return Square()


class Circle:
    def area(self):
        return 3.0

    def side(self):
        return 0.0

    @staticmethod
    def make():
        return Circle()


class Shape:
    def describe(self):
        return self.hook()


class Hexagon(Shape):
    def hook(self):
        return "six"
'''

USE = '''
from repro.shapes import Circle, Hexagon, Square

side = 2.0
print(Square.unit().area(), Circle().area(), Hexagon().describe())
'''


def test_a_shared_method_name_called_through_self_reaches_one_class(tmp_path):
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "examples").mkdir()
    (tmp_path / "src" / "repro" / "shapes.py").write_text(textwrap.dedent(SHAPES))
    (tmp_path / "examples" / "use.py").write_text(textwrap.dedent(USE))
    defs, findings = census(tmp_path)
    assert len(defs) == 13
    # `self.side()` and `cls.make()` are Square's, and the variable `side`
    # is no method; the override a base's `self.hook()` reaches stays used.
    assert sorted(d.qualname for d in findings) == ["Circle.make", "Circle.side"]
