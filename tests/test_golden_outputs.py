"""``thirdopt run`` traces and stdout, and ``thirdopt check`` reports, pinned by sha256.

Each corpus member runs from one fixed start at seeds 0-2; the checker
reads each origin and each seed-0 run's final point.  A refactor or
speed-up of the optimizer or the checker must leave these bytes alone.
The hashes were taken on Python 3.11.7 with numpy 2.4.6 on x86-64;
another numpy or libm can round differently.  Re-take them only when a
deliberate output change lands, and record that change in CHANGES.md.
"""

import hashlib
import sys

import numpy as np
import pytest

from thirdopt import CORPUS_NAMES
from thirdopt.cli import main

# The origin where the run starts with a seeded third-order step (the
# three degenerate saddles, and quartic_1d's shallow minimum next to a
# large third derivative); elsewhere a start whose run does some work.
# The monkey saddle and x^2 y + y^2 are unbounded below, so those runs
# end on the iteration budget.
STARTS = {
    "monkey_saddle": "0,0",
    "monkey_saddle_confined": "0,0",
    "xxy_plus_yy": "0,0",
    "quartic_1d": "0",
    "wine_bottle": "1.4,0.5",
    "inverted_wine_bottle": "0.3,0.2",
    "quartic_plus_sixth": "0.5,0.25",
}

# (member, seed) -> (trace JSONL, stdout)
RUN_SHA256 = {
    ("inverted_wine_bottle", 0): (
        "2ce0f4fa81bce594b97ca5d4ed1bbdd55b351b20e60adab008ab0dc97a2aa8a1",
        "31030e8383f92a31c10771e2098c9e355b3d3e2cd2280119f41158cb12699840"),
    ("inverted_wine_bottle", 1): (
        "2ce0f4fa81bce594b97ca5d4ed1bbdd55b351b20e60adab008ab0dc97a2aa8a1",
        "31030e8383f92a31c10771e2098c9e355b3d3e2cd2280119f41158cb12699840"),
    ("inverted_wine_bottle", 2): (
        "2ce0f4fa81bce594b97ca5d4ed1bbdd55b351b20e60adab008ab0dc97a2aa8a1",
        "31030e8383f92a31c10771e2098c9e355b3d3e2cd2280119f41158cb12699840"),
    ("monkey_saddle", 0): (
        "e75fc2675093b1e510bc67566ce4c9014b3bb853790b3baa1bb2fc64269d3f9c",
        "3f0e453202fa17bab361e623ce1287c5ffeac483b2fad00133b1fa7307e8f744"),
    ("monkey_saddle", 1): (
        "48d2f8cd907dfaba4a8dd20b89e585c7d8763de2414fd36d209a35d561eeef85",
        "dadc558333085625b00133b897dc8507c56d08dd8ac43e4b8075be296ccb5430"),
    ("monkey_saddle", 2): (
        "ca2026ba14e9c81b4074679c562aeeb0bbbd6abcbc9176f07181a630a59e0de4",
        "6f8d421d2f94bd8659f935afb0bef370e8a51f183d306cfc9e6b98ba0da883a8"),
    ("monkey_saddle_confined", 0): (
        "c242cc44518f33c8f2d4afac75da4b272bf9dfed8c240fac617dc28b376b46e0",
        "6a03adcf7f4684f3582a1c2b30d296972ec93904b148568b15a6755c658a4700"),
    ("monkey_saddle_confined", 1): (
        "ad486f0f86ccf42d0141ecb01b7c63a962a128238463b3e80ff5a078514b2df4",
        "b1254d905cf038c48648174fa72b12dbb5af6677bcb447eca043b8b1e3b9f1fc"),
    ("monkey_saddle_confined", 2): (
        "3680584117f2b92555dd767d6def345098104859c724f3ac2e5b95fd7164c94b",
        "f3366a7fe856a48da284dbba6b9c221d05ede60e152bb9c865fdad8247ea4179"),
    ("quartic_1d", 0): (
        "5e53045f6caaec5dc61133164f81333c0cdfc89990df28c97e6593808333f594",
        "ce2068d2492c52b1477d9ce3ee811d8242d1dc21ea075d2a88ce5b02ab8cfe25"),
    ("quartic_1d", 1): (
        "5e53045f6caaec5dc61133164f81333c0cdfc89990df28c97e6593808333f594",
        "ce2068d2492c52b1477d9ce3ee811d8242d1dc21ea075d2a88ce5b02ab8cfe25"),
    ("quartic_1d", 2): (
        "5e53045f6caaec5dc61133164f81333c0cdfc89990df28c97e6593808333f594",
        "ce2068d2492c52b1477d9ce3ee811d8242d1dc21ea075d2a88ce5b02ab8cfe25"),
    ("quartic_plus_sixth", 0): (
        "5dca8c5453fe2eb825144f2af746e4dce1f4db8a9475c70e425992000cf17354",
        "6d376284600a2e47826a52dd8f6adcb8be321748a0430ffcdb202556a1976c5b"),
    ("quartic_plus_sixth", 1): (
        "5dca8c5453fe2eb825144f2af746e4dce1f4db8a9475c70e425992000cf17354",
        "6d376284600a2e47826a52dd8f6adcb8be321748a0430ffcdb202556a1976c5b"),
    ("quartic_plus_sixth", 2): (
        "5dca8c5453fe2eb825144f2af746e4dce1f4db8a9475c70e425992000cf17354",
        "6d376284600a2e47826a52dd8f6adcb8be321748a0430ffcdb202556a1976c5b"),
    ("wine_bottle", 0): (
        "245af34c401b396fdd1cb7f5dd16f0d41594b0cdba0f78dfde20906f56a1fe0e",
        "e22de393c643af4f75991b878a68ee3e589b79c468d7d742de4dca1304504570"),
    ("wine_bottle", 1): (
        "245af34c401b396fdd1cb7f5dd16f0d41594b0cdba0f78dfde20906f56a1fe0e",
        "e22de393c643af4f75991b878a68ee3e589b79c468d7d742de4dca1304504570"),
    ("wine_bottle", 2): (
        "245af34c401b396fdd1cb7f5dd16f0d41594b0cdba0f78dfde20906f56a1fe0e",
        "e22de393c643af4f75991b878a68ee3e589b79c468d7d742de4dca1304504570"),
    ("xxy_plus_yy", 0): (
        "86a88cf5b05f735507a51203dccab32e7fe3be063164ba5bb262f18d35071eb2",
        "44709681f3836ba4968986779f0c6ad81980512bd7e2083c865c763c67594d48"),
    ("xxy_plus_yy", 1): (
        "897147ba85cb1f6a2ee85a167e28f0522de331f5ea0ce33fa8aefdf11ca588f2",
        "76016f45f4530b9a13c21ed43ec69e3f99837f558e11690df38c3801a5fa0641"),
    ("xxy_plus_yy", 2): (
        "8b46bce3f5a094dcdf0856eda70eab1d92931ba3b3732088f072b7589809ca69",
        "d4e8605d5475865a02a33e701752373cca8b57c3406ea28eadab1c35180baeef"),
}

# (member, "origin" | "final") -> check JSON; "final" is the seed-0 run's final point.
CHECK_SHA256 = {
    ("inverted_wine_bottle", "final"): "a9a109b7e0302f01daa91be19657d2f11fdff03128d0a6bf916e416036d83487",
    ("inverted_wine_bottle", "origin"): "73ab7efe7187e9085ef70807c6097cb4678d1abf3bb4a067d1acda7f27ec786b",
    ("monkey_saddle", "final"): "58a293f5881fdd8324bbde23e7928f77bddd4e40e54060982dacd1a820911ff3",
    ("monkey_saddle", "origin"): "ef02171c6eff2a2cc6dcd1aeb8d66f35359a74f7e3d01d1d05e25f2ca8cbdf99",
    ("monkey_saddle_confined", "final"): "b6aa39db3700f057fcbdd13cb8d1016b4e1b8126097e1282e7a93d2f5724a3f6",
    ("monkey_saddle_confined", "origin"): "ef02171c6eff2a2cc6dcd1aeb8d66f35359a74f7e3d01d1d05e25f2ca8cbdf99",
    ("quartic_1d", "final"): "b99663b5a97d665a603e0d41f620cdacb30b4ed9f4ce6460057e1024499834ec",
    ("quartic_1d", "origin"): "73ab7efe7187e9085ef70807c6097cb4678d1abf3bb4a067d1acda7f27ec786b",
    ("quartic_plus_sixth", "final"): "3d43ea6d260c30445238416838a6f4222dcb4793ced38c2b6101f0f541019df1",
    ("quartic_plus_sixth", "origin"): "cef15d62d2609fb4f224237c7ff5ac18559604e9bb5cbc9b54f104a053a65268",
    ("wine_bottle", "final"): "4c95abe935d88819b1025e6236d3b137514d65f60fabbe409fc794e532e91243",
    ("wine_bottle", "origin"): "fc6f134b47839f6627bb27963e4a4f22c96c9fd9a5e59af7b65188af64a913f9",
    ("xxy_plus_yy", "final"): "50510212441e9bf9418271119ead5d4410c36bc0b08a43950f8d822b06c3c500",
    ("xxy_plus_yy", "origin"): "3618f7662779e47ff61aaedfde97b68c13e6af205d83a009fa7cf38331a613f8",
}


def _sha256(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def _run(tmp_path, capsys, name, seed):
    trace = tmp_path / f"{name}-{seed}.jsonl"
    code = main(["run", "--problem", name, "--x0", STARTS[name], "--seed", str(seed),
                 "--trace", str(trace)])
    assert code in (0, 2)
    return trace.read_bytes(), capsys.readouterr().out


def _final_point(stdout: str) -> str:
    return stdout.split("final_x=")[1].strip()


def _check(capsys, name, point):
    # --point=... because a point may start with a minus sign
    code = main(["check", "--problem", name, f"--point={point}"])
    assert code in (0, 3)
    return capsys.readouterr().out


def test_starts_cover_the_corpus():
    assert sorted(STARTS) == sorted(CORPUS_NAMES)


@pytest.mark.parametrize("name, seed", sorted(RUN_SHA256))
def test_run_is_byte_identical(tmp_path, capsys, name, seed):
    trace, stdout = _run(tmp_path, capsys, name, seed)
    assert (_sha256(trace), _sha256(stdout)) == RUN_SHA256[name, seed]


@pytest.mark.parametrize("name, where", sorted(CHECK_SHA256))
def test_check_is_byte_identical(tmp_path, capsys, name, where):
    if where == "origin":
        point = ",".join(["0"] * len(STARTS[name].split(",")))
    else:
        point = _final_point(_run(tmp_path, capsys, name, 0)[1])
    assert _sha256(_check(capsys, name, point)) == CHECK_SHA256[name, where]


def test_runs_compute_only_what_the_trace_reads(tmp_path, capsys, monkeypatch):
    # minimize reads the cubic step and its radius alone, and seeds its
    # generator at the first escape step.  With the solver's model-value
    # body refused in every module that holds it, each run still gives its
    # pinned bytes, and only a run with an escape step seeds a generator.
    def refuse(grad, decomp, reg):
        raise AssertionError("minimize formed the cubic model's value")

    for name, module in list(sys.modules.items()):
        if name.startswith("thirdopt") and hasattr(module, "solve_cubic_model"):
            monkeypatch.setattr(module, "solve_cubic_model", refuse)
    seeded = []
    default_rng = np.random.default_rng

    def counting_rng(seed):
        seeded.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    escaped = 0
    for (name, seed), pins in sorted(RUN_SHA256.items()):
        seeded.clear()
        trace, stdout = _run(tmp_path, capsys, name, seed)
        assert (_sha256(trace), _sha256(stdout)) == pins
        escapes = b'"phase":"third"' in trace
        assert seeded == ([seed] if escapes else []), name
        escaped += escapes
    assert 0 < escaped < len(RUN_SHA256)
