"""Run the qcells CLI in-process with timing spans around each layer's calls.

Usage: python3 perfbench/tracer.py <qcells arguments...>

The program's stdout is written unchanged, so a traced run can be checked
against the same reference digest as an untraced one.  The per-layer
metrics, computed from spans held in memory, are written as the last line
of stderr once the command has finished.

Every wrapper is installed from here, on the name the caller looks up
(``cells.get_module``, ``hwmod.build_module``, ``LaurentQ.__mul__``...), so
nothing under ``src/`` changes.  A name missing from the program is skipped
and its metrics read zero.
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
from itertools import count
from time import perf_counter

# spans at the CLI boundary that start a new instance id in their thread
_INSTANCE_ROOTS = ("cells.verify_theorem", "cells.feigin_minor")


class _ThreadState:
    __slots__ = ("stack", "totals", "instance")

    def __init__(self) -> None:
        # frames are [child seconds, span name, get_module calls seen so far]
        self.stack: list[list] = []
        # span name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list] = {}
        self.instance: int | None = None


class _TimedLock:
    """Stands in for a datum's build lock and adds up the time spent waiting."""

    def __init__(self, lock) -> None:
        self._lock = lock
        self.wait_s = 0.0

    def acquire(self, *args, **kwargs):
        t0 = perf_counter()
        got = self._lock.acquire(*args, **kwargs)
        self.wait_s += perf_counter() - t0
        return got

    def release(self) -> None:
        self._lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class Tracer:
    """Thread-aware span recorder.

    Each wrapped call pushes a frame on its thread's stack; on return its
    duration is added to the parent frame, so self time is the span's
    duration minus that of its traced children.  Every call is tallied per
    name; calls wrapped with ``keep`` also leave a span record
    ``(name, parent name, instance id, depth, start, end, self, info)``.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._instances = count(1)
        self.spans: list[tuple] = []
        self.locks: list[_TimedLock] = []

    def _state(self) -> _ThreadState:
        ts = getattr(self._local, "ts", None)
        if ts is None:
            ts = _ThreadState()
            self._local.ts = ts
            self._states.append(ts)
        return ts

    def wrap(self, name: str, fn, keep: bool = False, info=None):
        state = self._state
        spans = self.spans
        instances = self._instances

        def traced(*args, **kwargs):
            ts = state()
            stack = ts.stack
            parent = stack[-1] if stack else None
            if parent is None and name in _INSTANCE_ROOTS:
                ts.instance = next(instances)
            frame = [0.0, name, 0]
            stack.append(frame)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[0] += dur
                tally = ts.totals.get(name)
                if tally is None:
                    tally = ts.totals[name] = [0, 0.0, 0.0]
                tally[0] += 1
                tally[1] += dur
                tally[2] += dur - frame[0]
                if keep:
                    detail = info(args, kwargs, result, parent) if info else None
                    spans.append((
                        name,
                        parent[1] if parent else None,
                        ts.instance,
                        len(stack),
                        t0,
                        t1,
                        dur - frame[0],
                        detail,
                    ))

        return traced

    def totals(self) -> dict[str, list]:
        """Per-name [calls, total seconds, self seconds] over all threads."""
        out: dict[str, list] = {}
        for ts in self._states:
            for name, (calls, total, own) in ts.totals.items():
                acc = out.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += total
                acc[2] += own
        return out


# -- what each kept span records ---------------------------------------------


def _get_module_info(args, kwargs, result, parent):
    # inside find_presentation the first module fetched is the target
    # V(varpi_{i_k}); every later one is a lam' candidate
    role = "used"
    if parent is not None and parent[1] == "cells.find_presentation":
        role = "target" if parent[2] == 0 else "candidate"
        parent[2] += 1
    datum, lam = args[0], args[1]
    return (datum.name, lam.coords, role)


def _build_info(args, kwargs, result, parent):
    numeric = kwargs.get("_numeric", args[3] if len(args) > 3 else True)
    dim = result.dim if result is not None else 0
    return (args[0].name, args[1].coords, dim, bool(numeric))


def _presentation_info(args, kwargs, result, parent):
    if result is None:
        return None
    return (args[0].datum.name, result.lam.coords)


def _len_info(args, kwargs, result, parent):
    return len(result) if result is not None else 0


def _block_info(args, kwargs, result, parent):
    return len(args[0])


def install(tracer: Tracer) -> None:
    """Wrap the public calls into each layer, at the name each caller uses."""
    from qcells import cartan, cells, cli, hwmod, scalars

    # (module the caller lives in, attribute, span name, keep spans, info)
    sites = [
        (cli, "weyl_elements", "cartan.weyl_elements", True, None),
        (cli, "reduced_words", "cartan.reduced_words", True, _len_info),
        (cli, "verify_theorem", "cells.verify_theorem", True, None),
        (cli, "chamber_ansatz", "cells.chamber_ansatz", True, None),
        (cli, "feigin_minor", "cells.feigin_minor", True, None),
        (cli, "feigin_matrix_coeff", "cells.feigin_matrix_coeff", True, None),
        (cli, "get_module", "hwmod.get_module", True, _get_module_info),
        (cli, "extremal_vector", "hwmod.extremal_vector", True, None),
        (cells, "find_presentation", "cells.find_presentation", True, _presentation_info),
        (cells, "twist_inverse_image", "cells.twist_inverse_image", False, None),
        (cells, "feigin_minor", "cells.feigin_minor", True, None),
        (cells, "feigin_matrix_coeff", "cells.feigin_matrix_coeff", False, None),
        (cells, "get_module", "hwmod.get_module", True, _get_module_info),
        (cells, "extremal_vector", "hwmod.extremal_vector", False, None),
        (cells, "act_f_divided", "hwmod.act_f_divided", False, None),
        (cells, "contravariant_form", "hwmod.contravariant_form", False, None),
        (cells, "solve_linear", "linalg.solve_linear", False, None),
        (hwmod, "build_module", "hwmod.build_module", True, _build_info),
        (hwmod, "act_f_divided", "hwmod.act_f_divided", False, None),
        (hwmod, "solve_square_multi", "linalg.solve_square_multi", True, _block_info),
        (hwmod, "column_rank_profile", "linalg.column_rank_profile", False, None),
        (scalars.LaurentQ, "__mul__", "scalars.laurent_mul", False, None),
        (scalars.LaurentQ, "__rmul__", "scalars.laurent_mul", False, None),
        (scalars.LaurentQ, "exact_div", "scalars.exact_div", False, None),
        (scalars.ScalarQ, "__mul__", "scalars.scalar_mul", False, None),
        (scalars.ScalarQ, "__add__", "scalars.scalar_add", False, None),
        (scalars.ScalarQ, "inverse", "scalars.inverse", False, None),
    ]
    for owner, attr, name, keep, info in sites:
        fn = getattr(owner, attr, None)
        if fn is not None:
            setattr(owner, attr, tracer.wrap(name, fn, keep, info))

    datum_init = cartan.RootDatum.__init__

    def init(self, *args, **kwargs):
        datum_init(self, *args, **kwargs)
        lock = getattr(self, "_build_lock", None)
        if lock is not None:
            self._build_lock = _TimedLock(lock)
            tracer.locks.append(self._build_lock)

    cartan.RootDatum.__init__ = init


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans and tallies of one traced command."""
    tot = tracer.totals()

    def calls(name: str) -> int:
        return tot.get(name, [0, 0.0, 0.0])[0]

    def total_s(name: str) -> float:
        return tot.get(name, [0, 0.0, 0.0])[1]

    def self_s(name: str) -> float:
        return tot.get(name, [0, 0.0, 0.0])[2]

    spans = tracer.spans
    per_instance: dict[int, float] = {}
    enumerate_s = 0.0
    words = 0
    used: set[tuple] = set()
    candidates = accepted = 0
    builds = exact_rebuilds = built_dim = max_block = 0
    build_s = 0.0
    build_by_weight: list[tuple[tuple, float]] = []
    for name, parent, instance, depth, t0, t1, own, detail in spans:
        if depth == 0 and name.startswith("cartan."):
            enumerate_s += t1 - t0
            if name == "cartan.reduced_words":
                words += detail
        elif depth == 0 and instance is not None:
            per_instance[instance] = per_instance.get(instance, 0.0) + (t1 - t0)
        if name == "hwmod.get_module":
            datum, lam, role = detail
            if role == "candidate":
                candidates += 1
            else:
                used.add((datum, lam))
        elif name == "cells.find_presentation" and detail is not None:
            accepted += 1
            used.add(detail)
        elif name == "hwmod.build_module":
            datum, lam, dim, numeric = detail
            if not numeric:
                exact_rebuilds += 1
            if parent != "hwmod.build_module":
                builds += 1
                built_dim += dim
                build_s += t1 - t0
                build_by_weight.append(((datum, lam), t1 - t0))
        elif name == "linalg.solve_square_multi":
            max_block = max(max_block, detail)

    rejected_s = sum(s for key, s in build_by_weight if key not in used)
    inst_ms = sorted(v * 1000.0 for v in per_instance.values())
    if len(inst_ms) > 1:
        deciles = statistics.quantiles(inst_ms, n=10, method="inclusive")
        p50, p90 = statistics.median(inst_ms), deciles[8]
    else:
        p50 = p90 = inst_ms[0] if inst_ms else 0.0
    get_calls = calls("hwmod.get_module")
    return {
        "cli.instances": len(per_instance),
        "cartan.enumerate_s": enumerate_s,
        "cartan.words_enumerated": words,
        "cells.instance_p50_ms": p50,
        "cells.instance_p90_ms": p90,
        "cells.find_presentation_self_s": self_s("cells.find_presentation"),
        "cells.feigin_matrix_coeff_self_s": self_s("cells.feigin_matrix_coeff"),
        "cells.feigin_matrix_coeff_calls": calls("cells.feigin_matrix_coeff"),
        "cells.twist_inverse_image_s": total_s("cells.twist_inverse_image"),
        "cells.feigin_minor_s": total_s("cells.feigin_minor"),
        "cells.chamber_ansatz_s": total_s("cells.chamber_ansatz"),
        "cells.candidates_tried": candidates,
        "cells.candidates_rejected": candidates - accepted,
        "cells.candidate_accept_ratio": _ratio(accepted, calls("linalg.solve_linear")),
        "hwmod.get_module_calls": get_calls,
        "hwmod.module_builds": builds,
        "hwmod.module_cache_hit_ratio": _ratio(get_calls - builds, get_calls),
        "hwmod.build_self_s": self_s("hwmod.build_module"),
        "hwmod.built_dim_total": built_dim,
        "hwmod.rejected_build_s": rejected_s,
        "hwmod.rejected_build_frac": _ratio(rejected_s, build_s),
        "hwmod.exact_rebuilds": exact_rebuilds,
        "hwmod.act_f_divided_s": total_s("hwmod.act_f_divided"),
        "hwmod.act_f_divided_calls": calls("hwmod.act_f_divided"),
        "hwmod.contravariant_form_s": total_s("hwmod.contravariant_form"),
        "hwmod.contravariant_form_calls": calls("hwmod.contravariant_form"),
        "hwmod.extremal_vector_s": total_s("hwmod.extremal_vector"),
        "hwmod.lock_wait_s": sum(lock.wait_s for lock in tracer.locks),
        "linalg.solve_square_multi_s": total_s("linalg.solve_square_multi"),
        "linalg.solve_square_multi_calls": calls("linalg.solve_square_multi"),
        "linalg.max_block_dim": max_block,
        "linalg.column_rank_profile_calls": calls("linalg.column_rank_profile"),
        "linalg.solve_linear_s": total_s("linalg.solve_linear"),
        "linalg.solve_linear_calls": calls("linalg.solve_linear"),
        "scalars.laurent_mul_self_s": self_s("scalars.laurent_mul"),
        "scalars.laurent_mul_calls": calls("scalars.laurent_mul"),
        "scalars.exact_div_self_s": self_s("scalars.exact_div"),
        "scalars.exact_div_calls": calls("scalars.exact_div"),
        "scalars.scalar_mul_self_s": self_s("scalars.scalar_mul"),
        "scalars.scalar_mul_calls": calls("scalars.scalar_mul"),
        "scalars.scalar_add_self_s": self_s("scalars.scalar_add"),
        "scalars.scalar_add_calls": calls("scalars.scalar_add"),
        "scalars.inverse_calls": calls("scalars.inverse"),
    }


def main(argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    from qcells import cli

    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad usage this way
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    report = {"metrics": layer_metrics(tracer), "spans": len(tracer.spans)}
    print(json.dumps(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
