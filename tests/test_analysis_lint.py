"""Tests for the repo lint framework (repro.analysis.lint + rules).

Covers the `# repro: bit-exact` marker scoping, `# repro: noqa`
suppression, each rule's positive and negative cases, and pins the
repo's own lint state: src/ must stay at zero live findings, with the
deliberate suppressions still visible for audit.
"""

from pathlib import Path
from textwrap import dedent

from repro.analysis import lint_paths, lint_source
from repro.analysis.lint import ModuleContext, bit_exact_lines, parse_suppressions
from repro.analysis.rules import default_rules
from repro.analysis.rules.bitexact import (
    AccumulatorDtypeLiteralRule,
    ReassociatingReductionRule,
)
from repro.analysis.rules.concurrency import (
    LockAcrossAwaitRule,
    UnlockedSharedStateRule,
)
from repro.analysis.rules.hygiene import MutableDefaultArgRule
from repro.analysis.rules.timing import WallClockInServeRule

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def rules_of(findings, *, live_only=False):
    return sorted({f.rule for f in findings if not (live_only and f.suppressed)})


def live(findings):
    return [f for f in findings if not f.suppressed]


class TestMarkers:
    def test_module_preamble_marker_covers_whole_module(self):
        src = dedent("""\
            '''Module docstring.'''
            # repro: bit-exact
            import numpy as np

            def f(a, b):
                return np.dot(a, b)
        """)
        ctx = ModuleContext.from_source(src)
        assert ctx.is_bit_exact(1) and ctx.is_bit_exact(6)
        findings = lint_source(src, rules=[ReassociatingReductionRule()])
        assert [f.rule for f in findings] == ["reassociating-reduction"]

    def test_def_marker_covers_only_that_function(self):
        src = dedent("""\
            import numpy as np

            def exact(a, b):  # repro: bit-exact
                return a @ b

            def free(a, b):
                return a @ b
        """)
        findings = lint_source(src, rules=[ReassociatingReductionRule()])
        assert len(findings) == 1
        assert findings[0].line == 4  # only inside exact()

    def test_marker_on_line_above_def(self):
        src = dedent("""\
            import numpy as np

            # repro: bit-exact
            def exact(a, b):
                return np.einsum('ij,jk->ik', a, b)
        """)
        findings = lint_source(src, rules=[ReassociatingReductionRule()])
        assert len(findings) == 1

    def test_unmarked_module_has_no_bit_exact_findings(self):
        src = "import numpy as np\n\ndef f(a, b):\n    return a @ b\n"
        tree = ModuleContext.from_source(src)
        assert not tree.bit_exact
        assert lint_source(src, rules=[ReassociatingReductionRule()]) == []


class TestSuppression:
    SRC = dedent("""\
        # repro: bit-exact
        import numpy as np

        def f(a, b):
            return np.dot(a, b)  {noqa}
    """)

    def test_matching_noqa_suppresses(self):
        src = self.SRC.format(noqa="# repro: noqa reassociating-reduction")
        findings = lint_source(src, rules=[ReassociatingReductionRule()])
        assert len(findings) == 1 and findings[0].suppressed

    def test_wrong_rule_noqa_does_not_suppress(self):
        src = self.SRC.format(noqa="# repro: noqa mutable-default-argument")
        findings = lint_source(src, rules=[ReassociatingReductionRule()])
        assert len(findings) == 1 and not findings[0].suppressed

    def test_bare_noqa_suppresses_every_rule(self):
        src = self.SRC.format(noqa="# repro: noqa")
        findings = lint_source(src)
        assert findings and all(f.suppressed for f in findings)

    def test_parse_suppressions_rule_lists(self):
        sup = parse_suppressions((
            "x = 1  # repro: noqa rule-a, rule-b",
            "y = 2",
            "z = 3  # repro: noqa",
        ))
        assert sup == {1: {"rule-a", "rule-b"}, 3: {"*"}}

    def test_finding_str_names_rule_and_suppression(self):
        src = self.SRC.format(noqa="# repro: noqa reassociating-reduction")
        (finding,) = lint_source(src, path="mod.py",
                                 rules=[ReassociatingReductionRule()])
        text = str(finding)
        assert text.startswith("mod.py:5: [reassociating-reduction]")
        assert text.endswith("(suppressed)")


class TestReassociatingReduction:
    def test_flags_matmul_operator_and_sum(self):
        src = dedent("""\
            # repro: bit-exact
            import numpy as np

            def f(a, b):
                y = a @ b
                y += a.sum(axis=0)
                return y
        """)
        findings = lint_source(src, rules=[ReassociatingReductionRule()])
        assert len(findings) == 2

    def test_ignores_elementwise_math(self):
        src = dedent("""\
            # repro: bit-exact
            import numpy as np

            def f(a, b):
                return a * b + np.abs(a)
        """)
        assert lint_source(src, rules=[ReassociatingReductionRule()]) == []


class TestAccumulatorDtypeLiteral:
    def test_flags_float32_attr_and_dtype_string(self):
        src = dedent("""\
            # repro: bit-exact
            import numpy as np

            def f(a):
                acc = np.zeros(3, dtype=np.float32)
                return a.astype(dtype="float16") + acc
        """)
        findings = lint_source(src, rules=[AccumulatorDtypeLiteralRule()])
        assert len(findings) == 2

    def test_float64_is_allowed(self):
        src = dedent("""\
            # repro: bit-exact
            import numpy as np

            def f(a):
                return np.zeros(3, dtype=np.float64)
        """)
        assert lint_source(src, rules=[AccumulatorDtypeLiteralRule()]) == []


class TestLockAcrossAwait:
    def test_flags_await_under_lock(self):
        src = dedent("""\
            import asyncio

            class S:
                async def f(self):
                    with self._lock:
                        await asyncio.sleep(0)
        """)
        findings = lint_source(src, rules=[LockAcrossAwaitRule()])
        assert len(findings) == 1

    def test_flags_run_in_executor_under_lock(self):
        src = dedent("""\
            class S:
                async def f(self, loop, fn):
                    with self._lock:
                        return await loop.run_in_executor(None, fn)
        """)
        assert len(lint_source(src, rules=[LockAcrossAwaitRule()])) >= 1

    def test_flags_blocking_acquire_in_async_def(self):
        src = dedent("""\
            class S:
                async def f(self):
                    self._lock.acquire()

                async def g(self):
                    self._lock.acquire(blocking=False)
        """)
        findings = lint_source(src, rules=[LockAcrossAwaitRule()])
        assert [f.line for f in findings] == [3]  # non-blocking probe allowed

    def test_lock_without_await_is_fine(self):
        src = dedent("""\
            class S:
                async def f(self):
                    with self._lock:
                        self.x = 1
                    await self.other()
        """)
        assert lint_source(src, rules=[LockAcrossAwaitRule()]) == []


class TestUnlockedSharedState:
    def test_flags_mutation_outside_lock(self):
        src = dedent("""\
            import threading

            class S:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def bump(self):
                    self.count += 1
        """)
        findings = lint_source(src, rules=[UnlockedSharedStateRule()])
        assert [f.line for f in findings] == [9]  # __init__ is exempt

    def test_mutation_under_lock_is_fine(self):
        src = dedent("""\
            import threading

            class S:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def bump(self):
                    with self._lock:
                        self.count += 1
        """)
        assert lint_source(src, rules=[UnlockedSharedStateRule()]) == []

    def test_locked_suffix_methods_are_exempt(self):
        src = dedent("""\
            import threading

            class S:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def _bump_locked(self):
                    self.count += 1
        """)
        assert lint_source(src, rules=[UnlockedSharedStateRule()]) == []

    def test_lockless_class_is_not_checked(self):
        src = dedent("""\
            class S:
                def __init__(self):
                    self.count = 0

                def bump(self):
                    self.count += 1
        """)
        assert lint_source(src, rules=[UnlockedSharedStateRule()]) == []


class TestMutableDefaultArg:
    def test_flags_literal_and_constructor_defaults(self):
        src = dedent("""\
            def f(x=[]):
                return x

            def g(y=dict()):
                return y
        """)
        findings = lint_source(src, rules=[MutableDefaultArgRule()])
        assert len(findings) == 2

    def test_immutable_defaults_are_fine(self):
        src = "def f(x=(), y=None, z=0, w='s'):\n    return x, y, z, w\n"
        assert lint_source(src, rules=[MutableDefaultArgRule()]) == []


class TestWallClockInServe:
    SERVE_PATH = "src/repro/serve/example.py"

    def test_flags_time_time_under_serve(self):
        src = dedent("""\
            import time

            def latency():
                return time.time()
        """)
        findings = lint_source(src, path=self.SERVE_PATH,
                               rules=[WallClockInServeRule()])
        assert [f.line for f in findings] == [4]

    def test_flags_bare_time_and_datetime_now(self):
        src = dedent("""\
            from time import time
            from datetime import datetime
            import datetime as dt

            def stamp():
                return time(), datetime.now(), dt.datetime.utcnow()
        """)
        findings = lint_source(src, path="src/repro/telemetry/example.py",
                               rules=[WallClockInServeRule()])
        assert len(findings) == 3

    def test_monotonic_clocks_are_fine(self):
        src = dedent("""\
            import time

            def latency():
                return time.perf_counter(), time.perf_counter_ns(), time.monotonic()
        """)
        assert lint_source(src, path=self.SERVE_PATH,
                           rules=[WallClockInServeRule()]) == []

    def test_other_packages_are_out_of_jurisdiction(self):
        src = "import time\n\nstamp = time.time()\n"
        assert lint_source(src, path="scripts/bench.py",
                           rules=[WallClockInServeRule()]) == []
        assert lint_source(src, path="src/repro/core/mpu.py",
                           rules=[WallClockInServeRule()]) == []

    def test_aware_datetime_now_still_flagged_but_bare_name_time_is_not(self):
        # `time` as a variable (not `from time import time`) must not trip.
        src = dedent("""\
            def f(time):
                return time()
        """)
        assert lint_source(src, path=self.SERVE_PATH,
                           rules=[WallClockInServeRule()]) == []


class TestRepoLintState:
    """Pin the repo's own lint state so regressions fail loudly."""

    def test_src_tree_has_no_live_findings(self):
        findings = lint_paths([SRC])
        assert live(findings) == [], "\n".join(str(f) for f in live(findings))

    def test_deliberate_suppressions_are_pinned(self):
        """The audited `# repro: noqa` justifications, by file and rule.

        If this test fails after adding a suppression, extend the table —
        every entry must carry a written justification at the marker site.
        """
        findings = lint_paths([SRC])
        suppressed = sorted((Path(f.path).name, f.rule)
                            for f in findings if f.suppressed)
        assert suppressed == [
            ("mpu.py", "reassociating-reduction"),
            # The reference's offset group-sum, which the kernel replays.
            ("mpu.py", "reassociating-reduction"),
            ("workers.py", "unlocked-shared-state"),
        ]

    def test_workers_close_suppression_is_justified_in_source(self):
        source = (SRC / "repro" / "serve" / "workers.py").read_text()
        (finding,) = [f for f in lint_paths([SRC / "repro" / "serve"])
                      if f.suppressed]
        assert finding.rule == "unlocked-shared-state"
        marker_line = source.splitlines()[finding.line - 1]
        assert "repro: noqa unlocked-shared-state" in marker_line

    def test_default_rules_cover_the_contracted_checks(self):
        names = {r.name for r in default_rules()}
        assert names == {
            "reassociating-reduction",
            "accumulator-dtype-literal",
            "lock-across-await",
            "unlocked-shared-state",
            "mutable-default-argument",
            "wall-clock-in-serve",
        }

    def test_bit_exact_modules_are_marked(self):
        """The numerical core must stay inside the bit-exact contract."""
        import ast

        for mod in ("core/mpu.py", "core/lut.py", "core/program.py"):
            source = (SRC / "repro" / mod).read_text()
            lines = tuple(source.splitlines())
            covered = bit_exact_lines(ast.parse(source), lines)
            assert covered == set(range(1, len(lines) + 1)), \
                f"{mod} lost its module-level bit-exact marker"
