"""Tests for the CFG builder and dataflow solver (repro.lint.flow)."""

import ast
import textwrap

from repro.lint.flow import (
    EXCEPTION, LOOP, ReachingDefinitions, assigned_names, build_cfg,
    iter_functions, may_raise, used_names,
)


def cfg_of(source):
    tree = ast.parse(textwrap.dedent(source))
    function = next(iter_functions(tree))
    return build_cfg(function)


def edges(cfg):
    return {(src.index, dst.index, kind)
            for src in cfg for dst, kind in src.successors}


class TestCfgConstruction:
    def test_straight_line(self):
        cfg = cfg_of("""
            def f():
                a = 1
                b = 2
                return a + b
        """)
        assert any(dst is cfg.exit for dst, _ in cfg.entry.successors) or \
            cfg.exit.index in cfg.reachable(cfg.entry)

    def test_if_has_true_and_false_edges(self):
        cfg = cfg_of("""
            def f(x):
                if x:
                    y = 1
                else:
                    y = 2
                return y
        """)
        kinds = {kind for _, _, kind in edges(cfg)}
        assert "true" in kinds and "false" in kinds

    def test_while_has_back_edge(self):
        cfg = cfg_of("""
            def f(n):
                while n:
                    n = n - 1
                return n
        """)
        assert any(kind == LOOP for _, _, kind in edges(cfg))

    def test_break_exits_loop(self):
        cfg = cfg_of("""
            def f(items):
                for item in items:
                    if item:
                        break
                return items
        """)
        # The return statement must be reachable from entry.
        returns = [block for block, stmt in cfg.statements()
                   if isinstance(stmt, ast.Return)]
        assert returns
        assert returns[0].index in cfg.reachable(cfg.entry)

    def test_raise_has_exception_edge(self):
        cfg = cfg_of("""
            def f():
                raise ValueError("boom")
        """)
        assert any(kind == EXCEPTION for _, _, kind in edges(cfg))

    def test_try_except_exception_edge_reaches_handler(self):
        cfg = cfg_of("""
            def f():
                try:
                    risky()
                except ValueError:
                    handled = True
                return True
        """)
        handler_blocks = [block for block, stmt in cfg.statements()
                          if isinstance(stmt, ast.Assign)]
        assert handler_blocks
        assert handler_blocks[0].index in cfg.reachable(cfg.entry)

    def test_finally_runs_on_both_paths(self):
        cfg = cfg_of("""
            def f():
                try:
                    risky()
                finally:
                    cleanup()
                return True
        """)
        final_blocks = [
            block for block, stmt in cfg.statements()
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Name)
            and stmt.value.func.id == "cleanup"]
        assert final_blocks
        # finally is on the normal path and has an exceptional out-edge.
        out_kinds = {kind for _, kind in final_blocks[0].successors}
        assert EXCEPTION in out_kinds

    def test_match_builds_case_blocks(self):
        cfg = cfg_of("""
            def f(x):
                match x:
                    case 1:
                        y = "one"
                    case _:
                        y = "other"
                return y
        """)
        assert cfg.exit.index in cfg.reachable(cfg.entry)

    def test_with_body_flows_through(self):
        cfg = cfg_of("""
            def f(lock):
                with lock:
                    value = 1
                return value
        """)
        assert cfg.exit.index in cfg.reachable(cfg.entry)

    def test_dead_code_after_return_not_reachable(self):
        cfg = cfg_of("""
            def f():
                return 1
                x = 2
        """)
        dead = [block for block, stmt in cfg.statements()
                if isinstance(stmt, ast.Assign)]
        assert dead
        assert dead[0].index not in cfg.reachable(cfg.entry)


class TestHelpers:
    def test_assigned_and_used_names(self):
        stmt = ast.parse("c = a + b").body[0]
        assert assigned_names(stmt) == {"c"}
        assert used_names(stmt) == {"a", "b"}

    def test_for_target_is_assigned(self):
        stmt = ast.parse("for i in items:\n    pass").body[0]
        assert assigned_names(stmt) == {"i"}
        assert used_names(stmt) == {"items"}

    def test_compound_uses_header_only(self):
        stmt = ast.parse("if flag:\n    body_name = other").body[0]
        assert used_names(stmt) == {"flag"}

    def test_may_raise(self):
        assert may_raise(ast.parse("f()").body[0])
        assert may_raise(ast.parse("raise ValueError").body[0])
        assert not may_raise(ast.parse("x = 1").body[0])


class TestReachingDefinitions:
    def test_branch_merges_definitions(self):
        cfg = cfg_of("""
            def f(flag):
                if flag:
                    x = 1
                else:
                    x = 2
                return x
        """)
        reaching = ReachingDefinitions.at_statements(cfg)
        ret = next(stmt for _, stmt in cfg.statements()
                   if isinstance(stmt, ast.Return))
        lines = sorted(line for name, line in reaching[id(ret)]
                       if name == "x")
        assert len(lines) == 2  # both branch definitions may reach

    def test_rebinding_kills_older_definition(self):
        cfg = cfg_of("""
            def f():
                x = 1
                x = 2
                return x
        """)
        reaching = ReachingDefinitions.at_statements(cfg)
        ret = next(stmt for _, stmt in cfg.statements()
                   if isinstance(stmt, ast.Return))
        lines = [line for name, line in reaching[id(ret)] if name == "x"]
        assert len(lines) == 1

    def test_loop_definition_reaches_header(self):
        cfg = cfg_of("""
            def f(n):
                total = 0
                while n:
                    total = total + n
                    n = n - 1
                return total
        """)
        reaching = ReachingDefinitions.at_statements(cfg)
        ret = next(stmt for _, stmt in cfg.statements()
                   if isinstance(stmt, ast.Return))
        lines = {line for name, line in reaching[id(ret)]
                 if name == "total"}
        assert len(lines) == 2  # initial + loop-carried
