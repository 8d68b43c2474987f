"""The full preprocessing pipeline in one call, memoised on model content."""

from __future__ import annotations

import struct
import threading
import weakref
from typing import Optional

from repro import telemetry
from repro.dtypes import DType
from repro.model.model import Model, untouched_template
from repro.model.subsystem import Subsystem
from repro.model.validate import validate_model
from repro.schedule.flatten import flatten
from repro.schedule.order import compute_execution_order
from repro.schedule.program import FlatProgram
from repro.schedule.typeinfer import infer_types


def preprocess(model: Model, *, dt: float = 1.0) -> FlatProgram:
    """Validate, flatten, type-infer, and schedule a model.

    This is the paper's complete Model Preprocessing step; the returned
    :class:`FlatProgram` is what every engine and the code generator take
    as input.

    Models with the same content (see :func:`_model_key`) and ``dt`` get
    the same program object, so a model rebuilt from the same reference
    skips every step above, and the codegen memo keyed on the program
    hits with it.  The returned program is therefore shared and
    read-only; ``prog.model`` is the first content-equal :class:`Model`
    the process saw.  A model holding a value the key cannot describe
    is preprocessed afresh on every call, and only a successful
    preprocess is remembered, so an invalid model raises on every call.

    An untouched lazy copy from :func:`~repro.benchmarks.build_benchmark`
    skips the key walk too: it is keyed by its template's content key,
    derived once per template, so a memo hit neither copies nor walks
    the model.  A miss materializes the copy (validation reads it) and
    runs the pipeline on it.
    """
    with telemetry.span("preprocess", model=model.name) as sp:
        key = _model_key(model, dt)
        prog = _MEMO.get(key) if key is not None else None
        hit = prog is not None
        if not hit:
            validate_model(model)
            prog = flatten(model, dt=dt)
            infer_types(prog)
            compute_execution_order(prog)
            if key is not None:
                prog = _MEMO.put(key, prog)
        telemetry.counter_inc(
            "preprocess.memo.hits" if hit else "preprocess.memo.misses"
        )
        sp.set(memo_hit=hit, actors=len(prog.actors), signals=len(prog.signals))
    return prog


def clear_preprocess_memo() -> None:
    """Forget every memoised program: the next preprocess of any model
    runs the whole pipeline again."""
    _MEMO.clear()


# ----------------------------------------------------------------------
# the content key
# ----------------------------------------------------------------------
class _Unkeyable(Exception):
    """A model holds a value the content key cannot describe exactly."""


_SCALAR_TAGS = {type(None): "None", bool: "bool", int: "int", str: "str"}
_float_bits = struct.Struct("<d").pack


def _add_value(add, value) -> None:
    """Append ``value`` to a key as type-tagged tokens.

    The tag keeps ``1``, ``1.0`` and ``True`` apart; a float is keyed by
    its bits, so ``0.0`` and ``-0.0`` differ and a NaN equals itself.
    Lists, tuples and dicts keep their order, behind their length, so no
    two different values give the same tokens.
    """
    kind = type(value)
    tag = _SCALAR_TAGS.get(kind)
    if tag is not None:
        add(tag)
        add(value)
    elif kind is float:
        add("float")
        add(_float_bits(value))
    elif kind is DType:
        add("DType")
        add(value.value)
    elif kind is list or kind is tuple:
        add(kind.__name__)
        add(len(value))
        for item in value:
            _add_value(add, item)
    elif kind is dict:
        add("dict")
        add(len(value))
        for name, item in value.items():
            _add_value(add, name)
            _add_value(add, item)
    else:
        raise _Unkeyable(kind.__name__)


def _add_scope(add, scope: Subsystem) -> None:
    _add_value(add, scope.name)
    add(len(scope.actors))
    for name, actor in scope.actors.items():
        for value in (name, actor.name, actor.block_type, actor.operator,
                      actor.params):
            _add_value(add, value)
        for ports in (actor.inputs, actor.outputs):
            add(len(ports))
            for port in ports:
                _add_value(add, port.index)
                _add_value(add, port.name)
                _add_value(add, port.dtype)
    add(len(scope.subsystems))
    for name, child in scope.subsystems.items():
        _add_value(add, name)
        _add_scope(add, child)
    add(len(scope.connections))
    for conn in scope.connections:
        for value in (conn.src.actor, conn.src.port, conn.dst.actor,
                      conn.dst.port):
            _add_value(add, value)


def _model_key(model: Model, dt: float) -> Optional[tuple]:
    """Everything preprocessing reads from ``model`` and ``dt``, as an
    exact, immutable pair of type-tagged token tuples: ``dt``'s, then
    the model's content (:func:`_content_key`).  ``None`` when either
    cannot be keyed (the model is then preprocessed uncached).  An
    untouched lazy copy takes its template's content key, derived once
    (:meth:`~repro.model.model.ModelTemplate.shared`)."""
    tokens: list = []
    try:
        _add_value(tokens.append, dt)
    except _Unkeyable:
        return None
    template = untouched_template(model)
    if template is None:
        content = _content_key(model)
    else:
        content = template.shared("preprocess.content_key", _content_key)
    return None if content is None else (tuple(tokens), content)


def _content_key(model: Model) -> Optional[tuple]:
    """The model's name, description and metadata, then each scope's
    actors (name, block type, operator, params, ports) in insertion
    order, its child scopes, and its connections in list order; ``None``
    when a value cannot be keyed."""
    tokens: list = []
    add = tokens.append
    try:
        for value in (model.name, model.description, model.metadata):
            _add_value(add, value)
        _add_scope(add, model.root)
    except _Unkeyable:
        return None
    return tuple(tokens)


# ----------------------------------------------------------------------
# the memo
# ----------------------------------------------------------------------
class _PreprocessMemo:
    """Content key -> program, in two bounded tiers of :attr:`BOUND`
    entries each, oldest evicted first.

    A key seen once is only *noted*: the memo keeps a weak reference to
    its program, which therefore dies with its last user, and with it
    the program's codegen-memo entries.  While that program lives, an
    equal key gets it back; once it is dead, the next equal key's program
    is *held* (a strong reference).  So a model preprocessed once (a
    fuzz case, a one-off script) pins nothing, and a model preprocessed
    again and again (a campaign or service request per model reference)
    is preprocessed at most twice while it stays in the memo.  When two
    threads store the same key, the first stored program wins.
    """

    BOUND = 16

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._held: "dict[tuple, FlatProgram]" = {}
        self._noted: "dict[tuple, weakref.ref]" = {}

    def get(self, key: tuple) -> Optional[FlatProgram]:
        with self._lock:
            return self._find(key)

    def put(self, key: tuple, prog: FlatProgram) -> FlatProgram:
        """Store ``prog`` under ``key``; returns the program the memo now
        gives for ``key`` (an earlier one, if another thread won)."""
        with self._lock:
            found = self._find(key)
            if found is not None:
                return found
            if key in self._noted:
                self._hold(key, prog)
            else:
                self._insert(self._noted, key, weakref.ref(prog))
            return prog

    def clear(self) -> None:
        with self._lock:
            self._held.clear()
            self._noted.clear()

    def _find(self, key: tuple) -> Optional[FlatProgram]:
        prog = self._held.get(key)
        if prog is None:
            ref = self._noted.get(key)
            prog = ref() if ref is not None else None
            if prog is not None:
                self._hold(key, prog)
        return prog

    def _hold(self, key: tuple, prog: FlatProgram) -> None:
        self._noted.pop(key, None)
        self._insert(self._held, key, prog)

    def _insert(self, tier: dict, key: tuple, value) -> None:
        if len(tier) >= self.BOUND:
            del tier[next(iter(tier))]
        tier[key] = value


_MEMO = _PreprocessMemo()
