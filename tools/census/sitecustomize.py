"""Census hook: which ``src/repro`` functions and settings does a run use?

Put this directory first on ``PYTHONPATH`` and set ``CENSUS_OUT`` to a
directory; every Python process started that way (and every
``multiprocessing`` child it forks) appends two records to ``CENSUS_OUT``:

* ``<pid>.txt`` -- the code objects of ``src/repro`` it called at least
  once, one ``path:first line:qualified name`` per line (the function
  census);
* ``<pid>.set`` -- the defaulted parameters of ``src/repro`` callables it
  bound to a non-default value at least once, one ``path:qualified
  name:parameter`` per line (the settings census).  A dataclass field
  counts as a parameter of the class's ``__init__``, so a field set
  through ``dataclasses.replace`` is recorded too.

``report.py`` (beside this file) turns the dumps into the census tables.
Unset ``CENSUS_OUT`` and nothing is installed.

Things a naive ``sys.settrace`` hook gets wrong, handled here:

* pytest-benchmark calls ``sys.settrace(None)`` around every benchmark:
  ``sys.settrace`` is wrapped so that ``None`` re-installs the hook and
  any other trace function is chained behind it;
* the shard tier stops its workers with SIGTERM, and ``multiprocessing``
  children leave through ``os._exit`` (no ``atexit``): children dump when
  ``BaseProcess._bootstrap`` returns and on SIGTERM;
* a dataclass ``__init__`` is compiled from a string (``co_filename ==
  "<string>"``): it is resolved through ``type(self)``'s MRO, and its
  defaults are the class's fields -- a ``default_factory`` field compares
  against ``factory()``, not against the ``_HAS_DEFAULT_FACTORY`` sentinel
  the generated signature carries;
* a generator's frame raises a ``call`` event on every resume, when its
  parameters may already be rebound: only the first one is checked.
"""

import atexit
import os
import signal
import sys
import threading

OUT = os.environ.get("CENSUS_OUT")
PACKAGE = os.sep + os.path.join("src", "repro") + os.sep

if OUT:
    import dataclasses
    import dis
    import gc
    import math

    _records: list = []
    #: every code object seen -> (key prefix, its parameters still at their
    #: default everywhere so far, as ``(name, default)``); a recorded
    #: parameter leaves the list
    _params: dict = {}
    #: generator code -> offset of its first ``call`` event (its first RESUME)
    _starts: dict = {}
    _set_records: list = []
    _set_trace = sys.settrace
    _GENERATOR_FLAGS = 0x20 | 0x80 | 0x200  # generator, coroutine, async gen
    _FACTORY = object()  # marks a default_factory default: compare to its value

    def _owner_class(frame, code):
        """The class whose dataclass-generated ``__init__`` is ``code``."""
        if code.co_name != "__init__" or not code.co_varnames:
            return None
        self = frame.f_locals.get(code.co_varnames[0])
        for cls in type(self).__mro__:
            init = cls.__dict__.get("__init__")
            if getattr(init, "__code__", None) is code:
                module = sys.modules.get(cls.__module__)
                path = getattr(module, "__file__", "") or ""
                if PACKAGE in path and dataclasses.is_dataclass(cls):
                    return cls, path
                return None
        return None

    def _function(frame, code):
        """The function object of ``code``: by qualified name from its
        module, else by a (rare, slow) search of the garbage collector."""
        obj = frame.f_globals
        for part in code.co_qualname.split("."):
            obj = obj.get(part) if isinstance(obj, dict) else getattr(obj, "__dict__", {}).get(part)
            if obj is None:
                break
        for attr in ("__func__", "fget", "__wrapped__"):
            obj = getattr(obj, attr, obj)
        if getattr(obj, "__code__", None) is code:
            return obj
        for ref in gc.get_referrers(code):
            if getattr(ref, "__code__", None) is code:
                return ref
        return None

    def _defaults(frame, code):
        """``(key prefix, [(parameter, default)])`` of ``code``'s
        defaulted parameters; the list is empty when it has none we track."""
        none = ("", [])
        if not code.co_argcount + code.co_kwonlyargcount:
            return none
        if PACKAGE in code.co_filename and "<" not in code.co_qualname:
            fn = _function(frame, code)
            if fn is None:
                return none
            names = code.co_varnames[: code.co_argcount]
            pos = fn.__defaults__ or ()
            params = list(zip(names[len(names) - len(pos):], pos))
            params += list((fn.__kwdefaults__ or {}).items())
            prefix = f"{code.co_filename}:{code.co_qualname}"
        elif code.co_filename == "<string>":
            owner = _owner_class(frame, code)
            if owner is None:
                return none
            cls, path = owner
            params = []
            for f in dataclasses.fields(cls):
                if not f.init:
                    continue
                if f.default is not dataclasses.MISSING:
                    params.append((f.name, f.default))
                elif f.default_factory is not dataclasses.MISSING:
                    params.append((f.name, (_FACTORY, f.default_factory())))
            prefix = f"{path}:{cls.__qualname__}.__init__"
        else:
            return none
        if params and code.co_flags & _GENERATOR_FLAGS:
            _starts[code] = next(i.offset for i in dis.get_instructions(code) if i.opname == "RESUME")
        return prefix, params

    def _is_default(value, default) -> bool:
        if type(default) is tuple and default and default[0] is _FACTORY:
            if value is dataclasses._HAS_DEFAULT_FACTORY:
                return True
            default = default[1]
        if value is default:
            return True
        if isinstance(value, float) and isinstance(default, float):
            if math.isnan(value) and math.isnan(default):
                return True
        try:
            return bool(value == default)
        except Exception:
            return False

    def _check_settings(frame, code, prefix, params):
        if code in _starts and frame.f_lasti > _starts[code]:
            return  # a generator resuming, not starting
        local = frame.f_locals
        keep = []
        for name, default in params:
            if name in local and not _is_default(local[name], default):
                _set_records.append(f"{prefix}:{name}")
            else:
                keep.append((name, default))
        if len(keep) != len(params):
            params[:] = keep

    def _hook(frame, event, arg):
        code = frame.f_code
        entry = _params.get(code)
        if entry is None:
            if PACKAGE in code.co_filename:
                _records.append(code)
            try:
                entry = _defaults(frame, code)
            except Exception:
                entry = ("", [])
            _params[code] = entry
        if entry[1]:
            _check_settings(frame, code, *entry)
        return None

    def _settrace(fn):
        if fn is None or fn is _hook:
            _set_trace(_hook)
            return

        def chained(frame, event, arg):
            _hook(frame, event, arg)
            return fn(frame, event, arg)

        _set_trace(chained)

    def _write(suffix: str, lines: list) -> None:
        if lines:
            with open(os.path.join(OUT, f"{os.getpid()}{suffix}"), "a") as fh:
                fh.writelines(line + "\n" for line in lines)
            lines.clear()

    def _dump() -> None:
        _write(".txt", [f"{c.co_filename}:{c.co_firstlineno}:{c.co_qualname}" for c in _records])
        _records.clear()
        _write(".set", _set_records)

    def _on_sigterm(signum, frame):
        _dump()
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGTERM)

    import multiprocessing.process as _mp_process

    _bootstrap = _mp_process.BaseProcess._bootstrap

    def _child_bootstrap(self, *args, **kwargs):
        # A forked child inherits the parent's records: start empty.
        _records.clear()
        _set_records.clear()
        signal.signal(signal.SIGTERM, _on_sigterm)
        try:
            return _bootstrap(self, *args, **kwargs)
        finally:
            _dump()

    os.makedirs(OUT, exist_ok=True)
    _mp_process.BaseProcess._bootstrap = _child_bootstrap
    sys.settrace = _settrace
    _set_trace(_hook)
    threading.settrace(_hook)
    atexit.register(_dump)
