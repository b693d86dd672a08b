"""Self-test of the tracer on a synthetic nested call with a scripted clock.

Run it with ``python3 perfbench/selftest.py``; traced benchmark runs also run it
before they trace anything.  It checks the self-time arithmetic, re-binding of a
name imported into a second module, skipping of absent targets, count hooks and
restoration of the original functions.
"""

from __future__ import annotations

import sys
import types

from tracer import Target, Tracer

PKG = "_tracer_selftest_pkg"


def _expect(label: str, got, want) -> None:
    if got != want:
        raise RuntimeError(f"tracer self-test: {label} is {got!r}, expected {want!r}")


def check_tracer() -> None:
    now = [0.0]

    layer = types.ModuleType(f"{PKG}.layer")

    def inner(x):
        now[0] += 5.0
        return x

    def outer(x):
        now[0] += 1.0
        layer.inner(x)
        now[0] += 2.0
        user.inner(x)          # the same function, bound under a second module's name
        now[0] += 3.0
        return [x, x, x]

    layer.inner, layer.outer = inner, outer
    user = types.ModuleType(f"{PKG}.user")
    user.inner = inner
    mods = {PKG: types.ModuleType(PKG), layer.__name__: layer, user.__name__: user}
    targets = (
        Target("layer", "outer", "outer",
               lambda c, a, k, r: c.update({"items": len(r)})),
        Target("layer", "inner", "inner"),
        Target("layer", "renamed_away", "gone"),
        Target("missing_module", "f", "gone"),
    )
    saved = {k: sys.modules.get(k) for k in mods}
    sys.modules.update(mods)
    try:
        with Tracer(targets, clock=lambda: now[0], package=PKG) as tracer:
            tracer.op = 7
            layer.outer(1)
        summary = tracer.summary()
    finally:
        for k, v in saved.items():
            if v is None:
                sys.modules.pop(k, None)
            else:
                sys.modules[k] = v

    _expect("outer", summary["outer"], {"calls": 1, "incl_s": 16.0, "self_s": 6.0})
    _expect("inner", summary["inner"], {"calls": 2, "incl_s": 10.0, "self_s": 10.0})
    _expect("span names", sorted(summary), ["inner", "outer"])
    _expect("absent", tracer.absent, ["layer.renamed_away", "missing_module.f"])
    _expect("count hook", tracer.counters["items"], 3)
    _expect("parents", [s[3] for s in tracer.spans], [-1, 0, 0])
    _expect("op ids", {s[4] for s in tracer.spans}, {7})
    _expect("restored", (layer.outer, layer.inner, user.inner), (outer, inner, inner))


if __name__ == "__main__":
    check_tracer()
    print("tracer self-test passed")
