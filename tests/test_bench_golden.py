"""The six ``thirdopt bench`` CSVs at seed 0, and five of them at more seeds, pinned by sha256.

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
    "sampler": "97cd7cbd09496c0857aa0200ccf17424e0bea7de6f6c294699ec29a663fc6314",
    "taylor": "1c1773e3abcc70278c07ab72f87c6dbf9b20bc430a067021f74b53eac9cd514c",
    "subproblem": "2c2179cfc42e56523e0ba2ff6f39846d059eb632f6c7fc886da3c18d00899e9e",
}


@pytest.mark.parametrize("suite", sorted(GOLDEN_SHA256))
def test_bench_csv_is_byte_identical(tmp_path, capsys, suite):
    out = tmp_path / f"{suite}.csv"
    assert main(["bench", "--suite", suite, "--seed", "0", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[suite]


# The ratio's ||y - x||^4 comes from np.float_power, libm pow per element;
# np.power changes the last digit of worst_ratio at seed 3 but not at seeds
# 0, 4 and 6.
TAYLOR_SHA256 = {
    3: "a82465e5054b94d6123ee9e143758cfa33f06f9fa98c50c8503e167ebf957fb1",
    4: "af37133bbaf0c5c5cf2eb70b535ad96694b2878dfa460e4d5b90f9fb0b0ff130",
    6: "ed0ee95758181acc5a2e5419d07296dafc7c014f147a17413f6a7f8077164115",
}


@pytest.mark.parametrize("seed", sorted(TAYLOR_SHA256))
def test_taylor_csv_is_byte_identical_at_more_seeds(tmp_path, capsys, seed):
    out = tmp_path / f"taylor{seed}.csv"
    assert main(["bench", "--suite", "taylor", "--seed", str(seed), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TAYLOR_SHA256[seed]


# The escape and rate suites take their lower bounds f* from the constants
# bench.GRID_MINIMA, each a least value on a fixed grid.  The rate CSV comes
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
# must give the rows the instance-by-instance full evaluation gives.  The
# sampler suite draws its tensors as one stack and its directions from the
# same generator; more seeds pin more of that stream.
SCREENED_SHA256 = {
    ("sampler", 4): "2da66db292a7751669b3af4a897b99af67f19038c1b2b517c49618af12720714",
    ("sampler", 6): "544a6f8814934a3cf22e1daeb8ba065f62d337391d6387d84da63fcd0db6c29b",
    ("subproblem", 4): "a1f79b4ca062dce50f1d6890aad6b4d3a69c3e02ed21551de8ab6a1cf76392e6",
    ("subproblem", 6): "9bd9489d275ff0242792a98c1befcd6019cda87b7222c9ba5d2181aabacf5cec",
}


@pytest.mark.parametrize("suite, seed", sorted(SCREENED_SHA256))
def test_subproblem_and_sampler_csvs_are_byte_identical_at_more_seeds(tmp_path, capsys,
                                                                      suite, seed):
    out = tmp_path / f"{suite}{seed}.csv"
    assert main(["bench", "--suite", suite, "--seed", str(seed), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SCREENED_SHA256[suite, seed]
