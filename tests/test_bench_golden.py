"""The six ``thirdopt bench`` CSVs at seed 0, and five of them at two more seeds, pinned by sha256.

A speed-up or refactor of anything the suites call must leave these bytes
alone.  The hashes were taken on Python 3.11.7 with numpy 2.4.6 on x86-64;
another numpy or libm can round differently.  Re-take them only when a
deliberate output change lands, and record that change in CHANGES.md.
"""

import hashlib

import pytest

from thirdopt.cli import main

GOLDEN_SHA256 = {
    "decrease": "504c62653e82771ad30c8090e523a087319ada32c818db108d117962c06f4436",
    "escape": "5c6122dc9dc26a2f90fec90766aa6dc4344a57646efb9107be3bb9934deb4d7c",
    "rate": "2a01b49576b1afd32f32cbd6aae347d39ec799617c5601e297c114107ba64eda",
    "sampler": "4f6ebcfe2e2bdda739bf423a74e1a3bbc9031768e17221e75aaae6f75b670519",
    "taylor": "e0a0a03ec5af397478d006b4f50888bdad82c618bb862381fac2bc14cf90cc15",
    "subproblem": "2c2179cfc42e56523e0ba2ff6f39846d059eb632f6c7fc886da3c18d00899e9e",
}


@pytest.mark.parametrize("suite", sorted(GOLDEN_SHA256))
def test_bench_csv_is_byte_identical(tmp_path, capsys, suite):
    out = tmp_path / f"{suite}.csv"
    assert main(["bench", "--suite", suite, "--seed", "0", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[suite]


# The ratio's ||y - x||^4 is a scalar pow per pair; numpy's array power
# changes the last digit of worst_ratio at these seeds but not at seed 0.
TAYLOR_SHA256 = {
    4: "e8ea18a6f720e9e4c0471fd723139b52216b88025e3a04950bec53775d8e8676",
    6: "fb4d878c4a1a81a69dbdbde8c859656093b25a525ad37215a7c3e180b204e689",
}


@pytest.mark.parametrize("seed", sorted(TAYLOR_SHA256))
def test_taylor_csv_is_byte_identical_at_more_seeds(tmp_path, capsys, seed):
    out = tmp_path / f"taylor{seed}.csv"
    assert main(["bench", "--suite", "taylor", "--seed", str(seed), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TAYLOR_SHA256[seed]


# The escape and rate suites take their lower bounds f* from grid minima,
# which evaluate exactly only the points a screen keeps.  The rate CSV comes
# out the same at seeds 0, 4 and 6: its rows read only f* and quantities the
# seeded draws leave alone.
GRID_MINIMUM_SHA256 = {
    ("escape", 4): "158cc7d8cf066749405ec13d2cc235b7cc7a088d9ea0806f4ad27fc870852f8c",
    ("escape", 6): "82ee77dacefac251db120fa404089ff059a97481151b224af21f5680fa33a5b4",
    ("rate", 4): "2a01b49576b1afd32f32cbd6aae347d39ec799617c5601e297c114107ba64eda",
    ("rate", 6): "2a01b49576b1afd32f32cbd6aae347d39ec799617c5601e297c114107ba64eda",
}


@pytest.mark.parametrize("suite, seed", sorted(GRID_MINIMUM_SHA256))
def test_grid_minimum_csvs_are_byte_identical_at_more_seeds(tmp_path, capsys, suite, seed):
    out = tmp_path / f"{suite}{seed}.csv"
    assert main(["bench", "--suite", suite, "--seed", str(seed), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GRID_MINIMUM_SHA256[suite, seed]


# The subproblem suite evaluates its grid only on the radii a bound keeps, and
# the sampler suite symmetrizes its tensors in one stack; both must give the
# rows the instance-by-instance full evaluation gives.
SCREENED_SHA256 = {
    ("sampler", 4): "7bac453b6e5886f717b3953e4289359c8e50824d2251c9148f0f1c95bd9e5643",
    ("sampler", 6): "744c8a0f4b4076afdd7e3a17d428f500015309630fcb7f1e9966ca6edf896612",
    ("subproblem", 4): "a1f79b4ca062dce50f1d6890aad6b4d3a69c3e02ed21551de8ab6a1cf76392e6",
    ("subproblem", 6): "9bd9489d275ff0242792a98c1befcd6019cda87b7222c9ba5d2181aabacf5cec",
}


@pytest.mark.parametrize("suite, seed", sorted(SCREENED_SHA256))
def test_subproblem_and_sampler_csvs_are_byte_identical_at_more_seeds(tmp_path, capsys,
                                                                      suite, seed):
    out = tmp_path / f"{suite}{seed}.csv"
    assert main(["bench", "--suite", suite, "--seed", str(seed), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SCREENED_SHA256[suite, seed]
