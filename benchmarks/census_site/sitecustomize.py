"""Reach-census hook: every Python process profiles itself.

Python imports this module at start-up when its directory is on
``PYTHONPATH``. ``benchmarks/census.py`` copies it into a directory of
its own, next to a ``census.json`` that names the tree's ``src`` and a
directory for dumps, and puts that directory on ``PYTHONPATH`` for the
runs it makes; their child processes inherit it. Without that file
beside it the module does nothing. With it, it runs one ``cProfile``
profiler for the main thread and, before Python 3.12, one for every
thread started later (``threading.setprofile``). From 3.12 ``cProfile``
runs on ``sys.monitoring``, whose one tool id covers every thread: the
main thread's profiler already sees them all, and a second profiler
would fail to enable. When the process ends — at exit, or
through ``os._exit``, which forked workers end with — it writes the
``[file, first line]`` of every function under ``src`` that any of them
entered to one JSON file in the dump directory.
"""

import json
import os
import sys

_CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "census.json")

if os.path.exists(_CONFIG):
    import atexit
    import cProfile
    import tempfile
    import threading

    with open(_CONFIG) as config:
        _SRC, _DUMPS = json.load(config)
    _SRC = _SRC.rstrip("/") + "/"
    _profilers: list[cProfile.Profile] = []
    _dumped_by: list[int] = []
    _exit = os._exit

    def _start() -> None:
        profiler = cProfile.Profile()
        _profilers.append(profiler)
        profiler.enable()

    def _start_in_thread(frame, event, arg) -> None:
        _start()  # the thread's profiler replaces this hook

    def _dump() -> None:
        if os.getpid() in _dumped_by:
            return
        _dumped_by.append(os.getpid())
        reached = set()
        for profiler in _profilers:
            for entry in profiler.getstats():
                code = entry.code
                if not isinstance(code, str) and code.co_filename.startswith(_SRC):
                    reached.add((code.co_filename[len(_SRC):],
                                 code.co_firstlineno))
        fd, part = tempfile.mkstemp(dir=_DUMPS, suffix=".part")
        with os.fdopen(fd, "w") as out:
            json.dump(sorted(reached), out)
        os.replace(part, part[:-len(".part")] + ".json")

    def _dump_then_exit(status: int) -> None:
        _dump()
        _exit(status)

    os._exit = _dump_then_exit
    atexit.register(_dump)
    if sys.version_info < (3, 12):
        threading.setprofile(_start_in_thread)
    _start()
