"""Runtime span recorder for a process under test.

``install(path)`` wraps the public functions and methods at each layer
boundary of ``repro`` and registers an exit hook that dumps every span to
``path`` as JSON. Nothing in ``src/`` knows about it: the wrappers are set
on the defining module or class and on every ``repro`` module that
imported the function by name (``repro.cli`` binds ``read_csv``,
``write_csv`` and ``run`` that way).

A span is ``[id, name, start, end, parent, rid]``. ``start``/``end`` come
from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so spans from
different processes share one time base), ``parent`` is the enclosing span
on the same thread (0 for a root) and ``rid`` the request id of the op.
Only root spans carry a rid; children inherit their root's.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import json
import sys
import threading
import time

#: Function wrappers: (module, attribute, span name).
FUNCTIONS = [
    ("repro.core.io", "read_csv", "io.read_csv"),
    ("repro.core.io", "write_csv", "io.write_csv"),
    ("repro.api.config", "build_schema", "config.build_env"),
    ("repro.api.config", "build_hierarchies", "config.build_env"),
    ("repro.api.executor", "run", "executor.run"),
    ("repro.api.executor", "run_batch", "executor.run_batch"),
    ("repro.api.executor", "execute", "executor.execute"),
    ("repro.core.generalize", "apply_node", "recode"),
    ("repro.core.generalize", "generalized_qi_table", "recode"),
    ("repro.core.generalize", "apply_partition_recoding", "recode"),
]

#: Method wrappers: (module, class, method, span name).
METHODS = [
    ("repro.core.engine", "LatticeEvaluator", "stats", "engine.stats"),
    ("repro.core.table", "Column", "decode", "recode"),
    ("repro.core.release", "Release", "partition", "recode"),
    ("repro.core.release", "Release", "equivalence_class_sizes", "recode"),
    ("repro.core.release", "Release", "summary", "recode"),
    ("repro.service.server", "AnonymizationService", "submit_job", "service.submit"),
    ("repro.service.server", "AnonymizationService", "release_bytes", "service.release"),
    ("repro.service.data", "TableCache", "load", "service.data_load"),
    ("repro.service.tenants", "TenantCaches", "stores_for", "service.stores_for"),
]

#: Privacy-model verdict methods, wrapped on every class that defines them.
VERDICTS = ("check", "check_stats", "failing_groups_stats")


class Tracer:
    """In-memory span store; one per process."""

    def __init__(self, path: str):
        self.path = path
        self.spans: list = []
        self.notes: list = []
        self.rid = None  # request id for ops driven by this process itself
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._config_rids: dict[int, str] = {}
        self._keep: list = []  # keeps configs alive so their ids stay unique
        self._store_fps: dict[int, str] = {}  # warm store id -> tenant/fingerprint

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, rid_of=None, before=None, after=None):
        """``fn`` recording a span per call.

        ``rid_of(args, kwargs, result)`` names the request of a root span;
        ``before(args, kwargs)`` runs ahead of the call and its return value
        reaches ``after(sid, args, kwargs, result, token)``.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            span_name = name(args) if callable(name) else name
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                rid = None
                if not parent:
                    rid = self.rid if rid_of is None else rid_of(args, kwargs, result)
                self.spans.append([sid, span_name, start, end, parent, rid])
                if after is not None:
                    after(sid, args, kwargs, result, token)

        return wrapper

    # -- service request ids -------------------------------------------------

    def _note_submit(self, sid, args, kwargs, result, token):
        service, tenant = args[0], args[1]
        if result:
            record = service.job(tenant, result["job_id"])
            self._keep.append(record.config)
            self._config_rids[id(record.config)] = result["job_id"]

    def _batch_rid(self, args, kwargs, result):
        configs = args[0] if args else kwargs.get("configs")
        return ("config", id(configs[0]), self.rid) if configs else self.rid

    def _note_stores(self, sid, args, kwargs, result, token):
        from repro.service.tenants import TenantCaches

        # The fingerprint leaves the tenant out; each tenant has its own store.
        for key, store in (result or {}).items():
            fp = TenantCaches.fingerprint(args[2], key)[:12]
            self._store_fps[id(store)] = f"{args[1]}/{fp}"

    def _store_counters(self, args, kwargs):
        stores = kwargs.get("cache_stores") or {}
        return {id(s): dict(s.counters) for s in stores.values()}

    def _note_batch(self, sid, args, kwargs, result, before):
        """Warm-store counter deltas of one service ``run_batch`` call."""
        stores = kwargs.get("cache_stores") or {}
        for store in stores.values():
            after = dict(store.counters)
            self.notes.append({
                "span": sid,
                "store": self._store_fps.get(id(store)),
                "after": after,
                "delta": {k: v - before[id(store)].get(k, 0) for k, v in after.items()},
            })

    def _note_result(self, sid, args, kwargs, result, token):
        if result is not None:
            report = result.to_dict()
            self.notes.append({
                "span": sid,
                "engine_cache": report.get("engine_cache"),
                "partition_cache": report.get("partition_cache"),
            })

    # -- output --------------------------------------------------------------

    def dump(self) -> None:
        spans = []
        for span in self.spans:
            rid = span[5]
            if isinstance(rid, tuple):
                rid = self._config_rids.get(rid[1], rid[2])
            spans.append(span[:5] + [rid])
        with open(self.path, "w") as handle:
            json.dump({"spans": spans, "notes": self.notes}, handle)


def _metric_name(args) -> str:
    return f"metrics.compute.{args[1]}"


def _rebind(original, wrapper) -> None:
    """Point every by-name import of ``original`` in ``repro`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _classes(package: str):
    """Classes defined in the submodules of ``package``."""
    seen = set()
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith(package + "."):
            continue
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == name and value not in seen:
                seen.add(value)
                yield value


def install(path: str, results: bool = False) -> Tracer:
    """Wrap every layer boundary in this process and dump spans at exit.

    With ``results`` the cache and partition counters of every ``run``
    result are noted as well (one-job processes such as a CLI run).
    """
    import importlib

    for module in ("repro.cli", "repro.api", "repro.service", "repro.algorithms",
                   "repro.privacy", "repro.metrics", "repro.core.generalize"):
        importlib.import_module(module)
    tracer = Tracer(path)
    for module_name, attr, span in FUNCTIONS:
        module = sys.modules[module_name]
        original = getattr(module, attr)
        if attr == "run" and results:
            wrapper = tracer.wrap(span, original, after=tracer._note_result)
        elif attr == "run_batch":
            wrapper = tracer.wrap(span, original, rid_of=tracer._batch_rid,
                                  before=tracer._store_counters,
                                  after=tracer._note_batch)
        else:
            wrapper = tracer.wrap(span, original)
        _rebind(original, wrapper)
    for module_name, cls_name, method, span in METHODS:
        cls = getattr(sys.modules[module_name], cls_name)
        original = cls.__dict__[method]
        kwargs = {}
        if method == "submit_job":
            kwargs = {"rid_of": lambda a, k, r: r and r["job_id"],
                      "after": tracer._note_submit}
        elif method == "release_bytes":
            kwargs = {"rid_of": lambda a, k, r: a[2]}
        elif method == "stores_for":
            kwargs = {"after": tracer._note_stores}
        setattr(cls, method, tracer.wrap(span, original, **kwargs))
    registry = sys.modules["repro.api.registry"].MetricRegistry
    registry.compute = tracer.wrap(_metric_name, registry.__dict__["compute"])
    for cls in _classes("repro.algorithms"):
        if "anonymize" in cls.__dict__:
            cls.anonymize = tracer.wrap("algorithms.anonymize", cls.__dict__["anonymize"])
    for cls in _classes("repro.privacy"):
        for method in VERDICTS:
            if method in cls.__dict__:
                setattr(cls, method, tracer.wrap("privacy.verdict", cls.__dict__[method]))
    atexit.register(tracer.dump)
    return tracer
