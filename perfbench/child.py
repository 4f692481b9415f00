"""Child process for the benchmark: import the CLI, optionally trace it, run it.

Usage: python3 child.py RECORD_FILE TRACE(0|1) RUN_ID [CLI ARGS...]

The child imports ``dualcount.cli`` (from whatever ``PYTHONPATH`` the parent
set), notes the ``time.monotonic()`` instant the import finished, and then
calls the real entry point ``cli.main(args)``.  With no CLI arguments it only
imports, which is how the parent samples set-up time on its own.

On exit it writes RECORD_FILE as JSON lines: first ``{"imported": t}``, then,
when TRACE is 1, one line per span and one per lru_cache'd traced function.  The parent reads the
file after the child has exited, so nothing is sent while the CLI runs and
the CLI's own stdout is left untouched.

Tracing wraps the public layer functions listed in TRACED from outside: every
module attribute that refers to one of them is replaced by a wrapper that
records a span (name, start, end, parent span, run id) and a work value taken
from the call's arguments or result.
"""

import functools
import json
import os
import sys
import time

# (module, function, work value taken from (args, result), or None)
TRACED = (
    ("counting", "count_homs", lambda a, r: r),
    ("counting", "verify_swap_equivalence", None),
    ("grouprep", "character_table", None),
    ("series", "prove_identity", None),
    ("series", "cleared_difference_degree", lambda a, r: r[1]),
    ("series", "expand", lambda a, r: r.order),
    ("lattice", "zn_duality_row", None),
    ("lattice", "weyl_orbit_count", None),
    ("lattice", "lattice_quotient", lambda a, r: r.size()),
    ("affine", "s_matrix", lambda a, r: [a[0], a[1], r.size * r.size]),
    ("affine", "verify_s_conjugation", lambda a, r: r["max_abs_error"]),
    ("affine", "unitarity_error", lambda a, r: r),
    ("affine", "symmetry_error", lambda a, r: r),
    ("affine", "charge_conjugation", lambda a, r: r[2]),
    ("cli", "render", None),
)

class Tracer:
    """Spans kept in memory as lists: [name, start, end, parent, value]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, work, cache_info=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            spans.append(span)
            stack.append(idx)
            misses = cache_info().misses if cache_info else 0
            span[1] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                stack.pop()
            if cache_info:
                span[4] = cache_info().misses - misses
            elif work is not None:
                span[4] = work(args, result)
            return result

        if cache_info:
            traced.cache_info = cache_info
            traced.cache_clear = fn.cache_clear
        return traced

    def install(self):
        """Replace every dualcount module attribute bound to a traced function."""
        modules = [m for k, m in sys.modules.items()
                   if k == "dualcount" or k.startswith("dualcount.")]
        for mod_name, fn_name, work in TRACED:
            original = getattr(sys.modules[f"dualcount.{mod_name}"], fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original, work,
                                getattr(original, "cache_info", None))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)


def main(argv):
    record_path, trace, run_id, cli_args = argv[0], argv[1] == "1", argv[2], argv[3:]
    import dualcount.cli as cli

    imported = time.monotonic()
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    status = 0
    try:
        if cli_args:
            status = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        lines = [{"imported": imported, "src": os.path.dirname(cli.__file__)}]
        if tracer:
            lines += [{"run": run_id, "id": i, "name": s[0], "start": s[1],
                       "end": s[2], "parent": s[3], "value": s[4]}
                      for i, s in enumerate(tracer.spans)]
            # the wrappers of lru_cache'd functions pass cache_info() through
            cached = {f"{m}.{f}": getattr(sys.modules[f"dualcount.{m}"], f)
                      for m, f, _ in TRACED}
            lines += [{"cache": name, "hits": fn.cache_info().hits,
                       "misses": fn.cache_info().misses}
                      for name, fn in cached.items() if hasattr(fn, "cache_info")]
        with open(record_path, "w") as fh:
            fh.writelines(json.dumps(line) + "\n" for line in lines)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
