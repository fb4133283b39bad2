"""Function-level reachability hook, loaded by ``site`` at start-up.

Active only when ``REPRO_REACH_DIR`` (where to write) and
``REPRO_REACH_ROOT`` (the source tree to watch) are set; ``reach.py``
sets both and puts this directory on ``PYTHONPATH`` for every command it
runs.  A ``sys.setprofile``/``threading.setprofile`` callback records
the ``(file, co_firstlineno)`` of every code object under the root that
is ever called.  Each process writes its set to ``<dir>/<pid>.hits`` at
exit and every 2 s, because some children (the e2e server) are killed
rather than drained.
"""

import os

_DIR = os.environ.get("REPRO_REACH_DIR")
_ROOT = os.environ.get("REPRO_REACH_ROOT")

if _DIR and _ROOT:
    import atexit
    import sys
    import threading

    _root = os.path.realpath(_ROOT) + os.sep
    _seen = set()      # every code object profiled so far
    _hits = set()      # (file, first line) of those under the root
    _dumped = [0]

    def _profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code not in _seen:
                _seen.add(code)
                path = code.co_filename
                if path.startswith(_root):
                    _hits.add((path, code.co_firstlineno))

    def _dump():
        hits = list(_hits)
        if len(hits) == _dumped[0]:
            return
        path = os.path.join(_DIR, f"{os.getpid()}.hits")
        tmp = f"{path}.{threading.get_ident()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(f"{p}\t{line}\n" for p, line in hits)
        os.replace(tmp, path)
        _dumped[0] = len(hits)

    def _every_2s():
        while True:
            threading.Event().wait(2.0)
            _dump()

    sys.setprofile(_profile)
    threading.setprofile(_profile)
    atexit.register(_dump)
    threading.Thread(target=_every_2s, name="reach-dump",
                     daemon=True).start()
