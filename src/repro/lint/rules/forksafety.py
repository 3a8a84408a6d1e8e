"""RPL006: fork-safety of the scheduler's worker processes.

``repro.service.scheduler`` forks long-lived worker processes, each of
which runs job after job until one does not end ``ok``.  Two classes of
state make that unsafe:

* **Signal handlers** installed anywhere except the sanctioned worker
  entry (``_child_main`` arms SIGALRM for each job *after* the fork,
  inside the child -- the safe direction -- and restores the handler
  before the next job).  A handler installed in the parent, or at
  import time, is inherited by every worker and fires in a context its
  author never considered; a handler installed by library code
  clobbers the scheduler's own SIGALRM timeout contract.

* **Module-level mutable state** in service modules.  With the default
  ``fork`` start method a worker inherits a snapshot of parent globals;
  mutations in either process silently diverge (and with ``spawn`` the
  state is re-imported empty).  Anything a worker needs must travel in
  its payload; anything the parent aggregates must live on an instance.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.lint.astutil import call_name, tail_name
from repro.lint.config import LintConfig, match_any
from repro.lint.finding import Finding
from repro.lint.registry import Rule, register
from repro.lint.runner import SourceModule

_SIGNAL_CALLS = {"signal.signal", "signal.setitimer", "signal.alarm",
                 "signal.siginterrupt", "signal.set_wakeup_fd"}

_MUTABLE_CTORS = {"list", "dict", "set", "bytearray", "defaultdict",
                  "deque", "Counter", "OrderedDict"}


def _is_mutable_ctor(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return tail_name(call_name(node)) in _MUTABLE_CTORS
    return False


def _module_level_statements(tree: ast.Module) -> Iterator[ast.stmt]:
    """Top-level statements, descending into top-level If/Try blocks but
    never into function or class bodies."""
    stack: List[ast.stmt] = list(tree.body)
    while stack:
        stmt = stack.pop(0)
        yield stmt
        if isinstance(stmt, ast.If):
            stack.extend(stmt.body + stmt.orelse)
        elif isinstance(stmt, ast.Try):
            stack.extend(stmt.body + stmt.orelse + stmt.finalbody)
            for handler in stmt.handlers:
                stack.extend(handler.body)


@register
class ForkSafetyRule(Rule):
    code = "RPL006"
    name = "fork-unsafe-state"
    summary = ("signal handler installed outside the scheduler worker "
               "entry, or module-level mutable state in worker-shared "
               "modules")
    rationale = ("scheduler workers are forked processes that run job "
                 "after job: inherited signal handlers clobber the "
                 "per-job SIGALRM timeout contract, and module-level "
                 "mutable state silently diverges between parent and "
                 "child")

    def check(self, module: SourceModule,
              config: LintConfig) -> Iterator[Finding]:
        if not match_any(module.path, config.signal_handler_allow):
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Call) \
                        and call_name(node) in _SIGNAL_CALLS:
                    yield self.finding(
                        module, node,
                        "%s() outside the sanctioned worker entry "
                        "(repro.service.scheduler) breaks the fork/"
                        "SIGALRM timeout contract" % call_name(node))
        if match_any(module.path, config.fork_shared_modules):
            for stmt in _module_level_statements(module.tree):
                targets: List[ast.expr] = []
                if isinstance(stmt, ast.Assign):
                    targets = stmt.targets
                    value = stmt.value
                elif isinstance(stmt, ast.AnnAssign) \
                        and stmt.value is not None:
                    targets = [stmt.target]
                    value = stmt.value
                else:
                    continue
                if not _is_mutable_ctor(value):
                    continue
                for target in targets:
                    if isinstance(target, ast.Name) \
                            and not target.id.startswith("__"):
                        yield self.finding(
                            module, stmt,
                            "module-level mutable state '%s' is shared "
                            "with forked scheduler workers; move it onto "
                            "an instance or into the job payload"
                            % target.id)
