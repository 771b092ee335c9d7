"""Function census hook: which ``src/repro`` functions does a run execute?

Put this directory first on ``PYTHONPATH`` and set ``CENSUS_OUT`` to a
directory; every Python process started that way (and every
``multiprocessing`` child it forks) appends the code objects of
``src/repro`` it called at least once to ``CENSUS_OUT/<pid>.txt``, one
``path:first line:qualified name`` per line.  ``report.py`` (beside this
file) turns the dumps of two runs -- the entry points and the tests --
into the census table.  Unset ``CENSUS_OUT`` and nothing is installed.

Two things a naive ``sys.settrace`` hook gets wrong, handled here:

* pytest-benchmark calls ``sys.settrace(None)`` around every benchmark:
  ``sys.settrace`` is wrapped so that ``None`` re-installs the hook and
  any other trace function is chained behind it;
* the shard tier stops its workers with SIGTERM, and ``multiprocessing``
  children leave through ``os._exit`` (no ``atexit``): children dump when
  ``BaseProcess._bootstrap`` returns and on SIGTERM.
"""

import atexit
import os
import signal
import sys
import threading

OUT = os.environ.get("CENSUS_OUT")
PACKAGE = os.sep + os.path.join("src", "repro") + os.sep

if OUT:
    _seen: set = set()
    _records: list = []
    _set_trace = sys.settrace

    def _hook(frame, event, arg):
        code = frame.f_code
        if code not in _seen:
            _seen.add(code)
            if PACKAGE in code.co_filename:
                _records.append(code)
        return None

    def _settrace(fn):
        if fn is None or fn is _hook:
            _set_trace(_hook)
            return

        def chained(frame, event, arg):
            _hook(frame, event, arg)
            return fn(frame, event, arg)

        _set_trace(chained)

    def _dump() -> None:
        if not _records:
            return
        path = os.path.join(OUT, f"{os.getpid()}.txt")
        with open(path, "a") as fh:
            for code in _records:
                fh.write(f"{code.co_filename}:{code.co_firstlineno}:{code.co_qualname}\n")
        _records.clear()

    def _on_sigterm(signum, frame):
        _dump()
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGTERM)

    import multiprocessing.process as _mp_process

    _bootstrap = _mp_process.BaseProcess._bootstrap

    def _child_bootstrap(self, *args, **kwargs):
        # A forked child inherits the parent's records: start empty.
        _records.clear()
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
