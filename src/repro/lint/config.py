"""Lint configuration: which rules run where.

Most rules guard a contract that only holds on specific paths -- private
kernel state is fair game *inside* ``repro.bdd``, wall-clock reads are
fine in the CLI, set iteration only matters where the bytes it orders
end up serialized.  The config expresses those scopes as ``fnmatch``
patterns over "/"-separated file paths, so the same rules run unchanged
over ``src/``, a test fixture tree, or an absolute path.

Defaults encode this repository's layout; tests override them to point
rules at fixture files.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatch
from typing import FrozenSet, Optional, Tuple


def match_any(path: str, patterns: Tuple[str, ...]) -> bool:
    """True when ``path`` matches any pattern.

    Paths are matched both as given and with a leading ``/`` so that
    ``*/repro/bdd/*`` works for ``src/repro/bdd/x.py``,
    ``repro/bdd/x.py`` and ``/abs/src/repro/bdd/x.py`` alike.
    """
    norm = path.replace("\\", "/")
    rooted = norm if norm.startswith("/") else "/" + norm
    return any(fnmatch(norm, pat) or fnmatch(rooted, pat)
               for pat in patterns)


@dataclass
class LintConfig:
    """Knobs for one lint run (rule scoping + framework behavior)."""

    #: Restrict to these rule codes (None = all registered rules).
    select: Optional[FrozenSet[str]] = None

    #: Directory names never descended into during path expansion.
    exclude_dirs: Tuple[str, ...] = ("__pycache__", ".git", "build", "dist",
                                     ".eggs", "lint_fixtures")

    # -- RPL001: broad except swallowing contract exceptions -----------
    #: Exception names a broad handler must not silently swallow.
    guarded_exceptions: Tuple[str, ...] = ("BddBudgetExceeded", "CheckError",
                                           "VerifyError")

    # -- RPL002: unsorted iteration on serialization paths -------------
    #: Modules whose output ordering is contractual (BLIF emission,
    #: serialization, cache keys, corpus files, decomposition choices
    #: that feed them).
    determinism_modules: Tuple[str, ...] = (
        "*/repro/sop/*", "*/repro/decomp/*", "*/repro/sis/*",
        "*/repro/bds/*", "*/repro/network/blif.py",
        "*/repro/bdd/serialize.py", "*/repro/service/cache.py",
        "*/repro/fuzz/corpus.py",
    )
    #: Function-name fragments that mark a determinism sink anywhere.
    determinism_sink_functions: Tuple[str, ...] = (
        "cache_key", "serialize", "write_", "emit", "to_payload",
        "canonical_", "entry_filename",
    )
    #: Calls known to return sets (beyond literals / set()/frozenset()).
    set_returning_calls: Tuple[str, ...] = ("set", "frozenset",
                                            "cover_support", "support")

    # -- RPL003: kernel private state ----------------------------------
    #: Modules allowed to touch BDD-manager private state.  The kernel
    #: and sanitizer white-box tests are co-owners of the contract: they
    #: audit (and deliberately corrupt) the arrays the rule protects.
    kernel_private_allow: Tuple[str, ...] = ("*/repro/bdd/*",
                                             "*/repro/check/*",
                                             "*/tests/test_bdd_*.py",
                                             "*/tests/test_check_*.py")
    #: Attribute names that are manager-private.
    kernel_private_attrs: Tuple[str, ...] = (
        "_nodes", "_ref", "_var_counts", "_unique", "_computed", "_cache",
        "_var", "_lo", "_hi", "_free", "_level2var", "_var2level",
        "_reorder_session",
    )

    # -- RPL004: handles across GC safe points -------------------------
    #: Method names that allocate / return kernel node handles.
    bdd_handle_ops: Tuple[str, ...] = (
        "mk", "ite", "var_ref", "not_", "negate", "and_many", "or_many",
        "xor_many", "apply", "compose", "restrict", "exist", "forall",
        "transfer", "build_sop",
    )
    #: Method names that may trigger a collection.
    gc_safe_points: Tuple[str, ...] = ("maybe_collect", "collect_garbage")
    #: Method names that protect a handle.
    root_registrations: Tuple[str, ...] = ("register_root",)

    # -- RPL005: nondeterminism sources on deterministic paths ---------
    #: Modules that must be reproducible byte-for-byte (the optimization
    #: and serialization pipeline).  The fuzzer and CLI are exempt: the
    #: fuzzer owns its seeded RNG, the CLI reports wall-clock to humans.
    deterministic_modules: Tuple[str, ...] = ("*/repro/*",)
    deterministic_exempt: Tuple[str, ...] = ("*/repro/fuzz/*",
                                             "*/repro/cli.py")

    # -- RPL006: fork-safety around scheduler workers ------------------
    #: Modules sanctioned to install signal handlers: the worker entry
    #: arms SIGALRM for each job *after* fork (the safe direction) and
    #: restores the handler before the worker's next job, and the socket
    #: server owns the process's SIGTERM drain handler (installed in the
    #: main thread only; forked workers reset it to SIG_DFL).
    signal_handler_allow: Tuple[str, ...] = ("*/repro/service/scheduler.py",
                                             "*/repro/service/server.py",)
    #: Modules whose module-level state is shared with forked workers.
    fork_shared_modules: Tuple[str, ...] = ("*/repro/service/*",)

    # -- RPL009: tracer spans must be opened with ``with`` -------------
    #: Receiver name tails treated as tracers (keeps e.g. the unrelated
    #: ``re.Match.span()`` out of scope).
    tracer_receivers: Tuple[str, ...] = ("trace", "tracer", "_tracer", "tr")
    #: Files allowed to call ``begin``/``end`` directly: the tracer
    #: implementation itself and its white-box tests.
    trace_internal_allow: Tuple[str, ...] = ("*/repro/obs/trace.py",
                                             "*/tests/test_obs_*.py")

    # -- RPL008: atomic writes under durable directories ---------------
    #: Modules that write into cache / corpus directories, where a torn
    #: write must never be observable.
    durable_write_modules: Tuple[str, ...] = ("*/repro/service/*",
                                              "*/repro/fuzz/corpus.py")

    def rule_enabled(self, code: str) -> bool:
        return self.select is None or code in self.select
