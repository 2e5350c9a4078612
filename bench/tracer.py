"""Spans around the public functions of ``qcollide``, installed from outside.

``install`` replaces each traced function with a wrapper at every module
attribute that binds it, so calls through ``from .model import ...`` copies
(``dynamics.pair_collision_unitary``, ``cli.run_trajectory``) are seen as
well as calls through the defining module. A function that no longer exists
is reported as absent and its layer stays at zero calls.

Each span records its layer, its duration and the time covered by its child
spans; self time is the difference. Spans are folded into per-(parent,
layer) totals as they close, so memory stays constant however many collisions
a run performs.
"""

from __future__ import annotations

import functools
import sys
import time

# (layer, module, function). A layer groups functions that play one role.
SPANS = (
    ("model.unitary", "model", "pair_collision_unitary"),
    ("model.state", "model", "composite_initial"),
    ("model.state", "model", "pure_qubit_density"),
    ("model.state", "model", "thermal_density"),
    ("qmat.kron", "qmat", "kron"),
    ("qmat.partial_trace", "qmat", "partial_trace"),
    ("qmat.partial_transpose", "qmat", "partial_transpose"),
    ("qmat.eigvalsh", "qmat", "hermitian_eigenvalues"),
    ("qmat.trace_norm", "qmat", "trace_norm_hermitian"),
    ("qmat.psd", "qmat", "is_positive_semidefinite"),
    ("metrics.l1_coherence", "metrics", "l1_coherence"),
    ("metrics.negativity", "metrics", "negativity"),
    ("metrics.trace_distance", "metrics", "trace_distance"),
    ("metrics.backflow", "metrics", "backflow_events"),
    ("dynamics.schedule", "dynamics", "repeated_schedule"),
    ("dynamics.schedule", "dynamics", "random_schedule"),
    ("dynamics.check", "dynamics", "check_register"),
    ("dynamics.collide", "dynamics", "collide"),
    ("dynamics.loop", "dynamics", "run_trajectory"),
    ("dynamics.loop", "dynamics", "orbit_sweep"),
    ("dynamics.loop", "dynamics", "markovian_trajectory"),
    ("dynamics.markovian_step", "dynamics", "markovian_step"),
    ("cli.parse", "cli", "build_parser"),
    ("cli.parse", "cli", "parse_grid"),
    ("cli.parse", "cli", "parse_window"),
    ("cli.render", "cli", "render_csv"),
    ("cli.render", "cli", "render_json"),
    ("cli.main", "cli", "main"),
)

ROOT = "-"  # parent name of spans opened outside any traced function


def _unitary_key(result) -> tuple:
    return (result.n_qubits, tuple(result.pair), float(result.p))


def _collide_flop(result) -> int:
    # u @ rho @ u^dag: two complex d x d matmuls of d^3 multiply-adds, 8 flops each.
    d = result.rho.shape[-1]
    return 16 * d ** 3


class Tracer:
    def __init__(self) -> None:
        self.edges: dict[tuple[str, str], list] = {}  # (parent, layer) -> [calls, total_s, self_s]
        self.unitary_keys: set[tuple] = set()
        self.collide_flop = 0
        self.render_bytes = 0
        self.hook_errors = 0
        self.sites: dict[str, list[str]] = {}
        self.absent: list[str] = []
        self._stack: list[list] = [[ROOT, 0.0]]

    def _hook(self, layer: str, result) -> None:
        try:
            if layer == "model.unitary":
                self.unitary_keys.add(_unitary_key(result))
            elif layer == "dynamics.collide":
                self.collide_flop += _collide_flop(result)
            elif layer == "cli.render":
                self.render_bytes += len(result.encode("utf-8"))
        except (AttributeError, TypeError, ValueError):
            self.hook_errors += 1

    def wrap(self, layer: str, fn):
        stack, edges, clock = self._stack, self.edges, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            parent = stack[-1]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                rec = edges.get((parent[0], layer))
                if rec is None:
                    rec = edges[(parent[0], layer)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            self._hook(layer, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function of SPANS at each ``qcollide`` module attribute bound to it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "qcollide" or name.startswith("qcollide."))]
        for layer, module, name in SPANS:
            owner = sys.modules.get(f"qcollide.{module}")
            fn = getattr(owner, name, None)
            key = f"{module}.{name}"
            if not callable(fn):
                self.absent.append(key)
                continue
            wrapped = self.wrap(layer, fn)
            sites = self.sites[key] = []
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapped)
                        sites.append(f"{mod.__name__}.{attr}")

    def layers(self) -> dict[str, dict[str, float]]:
        """Calls and self time per layer, summed over parents; every SPANS layer is present."""
        out = {layer: {"calls": 0, "self_s": 0.0} for layer, _, _ in SPANS}
        for (_, layer), (calls, _, self_s) in self.edges.items():
            out[layer]["calls"] += calls
            out[layer]["self_s"] += self_s
        return out

    def report(self) -> dict:
        return {
            "layers": self.layers(),
            "edges": [
                {"parent": p, "layer": c, "calls": n, "total_s": tot, "self_s": slf}
                for (p, c), (n, tot, slf) in sorted(self.edges.items())
            ],
            "unitary_distinct": len(self.unitary_keys),
            "collide_flop": self.collide_flop,
            "render_bytes": self.render_bytes,
            "hook_errors": self.hook_errors,
            "sites": self.sites,
            "absent": self.absent,
        }
