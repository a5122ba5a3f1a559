"""Byte-level golden bundles of a small scenario run.

The SHA-256 of every bundle file, for the standard and printed interval
forms and for ``min_group_n`` 2, on 4 journals x 5 years x 300 articles with
the benchmark's group mix: ten groups with shares 0.10 down to 0.01, a 0.3
collaboration fraction with partner ZZ, the top 10 countries, both schemes.
Small groups give insufficient_data cells; a fourth variant, printed form
with group II mostly uncited (mu -1), adds unbounded_fieller cells next to
them. A fifth variant sets a year window of 1998-2007, wider than the
2000-2004 data, so the year axis has empty years at both ends; its curve
exclusion counts and "missing" series rows depend on that axis. These
five run no split-half replicates, so their bundles rest on generation,
cells, curves, series and the writers. A sixth variant, ``split_half``,
runs 80 replicates, each cohort's bin counts drawn in one call from its own
stream, and so pins the offset-0 rows of the curve files and the lag0
exclusions byte for byte.

``test_paper_bundle_bytes_match_golden`` runs the paper's shape: 36
journals x 19 years x 300 articles with the same group mix, top 10
countries, both schemes, offsets up to 18 and 80 split-half replicates at
seed 0. Its 684 cohorts fill 57 split-half decision batches, so a change
that moves one decision there, or one byte of data.csv, shows.

A declared change to the synthetic RNG layout changes data.csv and every
file computed from it; that change must re-record these digests. A declared
change to the split-half RNG layout must re-record the ``split_half``
digests.
"""

import hashlib

import pytest

from mnlcs.experiment import ExperimentConfig, run_experiment

SCENARIO = {
    "n_journals": 4,
    "year_start": 2000,
    "year_end": 2004,
    "field_size_per_year": 300,
    "field_mu": 1.0,
    "field_sigma": 1.0,
    "groups": [
        {"country": code * 2, "share": round(0.10 - 0.01 * i, 2), "mu": 0.6 + 0.1 * i,
         "sigma": 1.0}
        for i, code in enumerate("ABCDEFGHIJ")
    ],
    "capability_mode": {"mode": "static"},
    "collab_fraction": 0.3,
    "collab_partner": "ZZ",
    "rng_seed": 7,
}

CONFIG = {
    "input": {"scenario": SCENARIO},
    "countries": {"top": 10},
    "schemes": ["inclusive", "exclusive"],
    "max_offset": 4,
    "lag0_replicates": 0,
    "seed": 7,
}

VARIANTS = {
    "standard": {},
    "printed": {"fieller_form": "printed"},
    "min_group_n_2": {"min_group_n": 2},
    "printed_uncited_group": {"fieller_form": "printed"},
    "wide_years": {"year_min": 1998, "year_max": 2007},
    "split_half": {"lag0_replicates": 80},
}


def variant_config(variant: str) -> dict:
    config = {**CONFIG, **VARIANTS[variant]}
    if variant == "printed_uncited_group":
        groups = [dict(g) for g in SCENARIO["groups"]]
        groups[8]["mu"] = -1.0
        config["input"] = {"scenario": {**SCENARIO, "groups": groups}}
    return config


# recorded on the code before cells became columnar
GOLDEN = {
    "min_group_n_2": {
        "cells.csv": "f23594607259ff6d6411b6bc04a5f4568e0760d059b7ce89427462b0a87aa2e9",
        "curves.csv": "c4c2878bba5da830c3d8ca17b0f9d0455912ea2cc794d11a1ea2d25f362b3779",
        "curves_exclusive.csv": "85d892c7e5ee7ab1edca8aa8955f1fd7dcf4f1b2dd7ab0e30de761c53be31ef4",
        "curves_inclusive.csv": "480f2d795878f4dc05d2eeb97da34024ed75a96b8400d5ba6b88741db189e37d",
        "data.csv": "d9088cb6bd99c7d0f3a1b7886f93c5f617528c698831eee16c0e7822c2f27e5c",
        "exclusions.csv": "35ccb975a19a322bbf63f50fd1b0ac87cea15e4ff712d326986f1f0da024140a",
        "manifest.json": "49a01eb57de69d00e8c7e47f4619633b3fa4ee890320fe2be1a88919525a3839",
        "resolved.json": "5f541b4c38235342931414f58a884641834f7458832a2b1b91fa7f5c6587bccd",
        "series.csv": "5ddc3f0d956df5a9728ee67e2972c8aedd5ba36f215c1b7ad76273341c5ad5c4",
    },
    "printed": {
        "cells.csv": "844c5f8fd847e89de1d7c63712505e5ea1e8abd3fe9faa8d5b22a6c68a0ad57b",
        "curves.csv": "b2e875849fff550b62e5a354c48940d5d20f39cfa55c937a86d31df7ad2fb0ef",
        "curves_exclusive.csv": "3b3b46c0d24ba612f33c9806e9b32a02235f8e558d38e854399d8f8823ddc613",
        "curves_inclusive.csv": "02239add9b1778f1fe606af93498fc71339964af05b6c0774e28b4bfd846cb62",
        "data.csv": "d9088cb6bd99c7d0f3a1b7886f93c5f617528c698831eee16c0e7822c2f27e5c",
        "exclusions.csv": "e37b67633b77fed1e62ab1a94fa539b740ceccca8a9bcf52ce603ff5bd28cea5",
        "manifest.json": "a7dd63b437b4644e86a8279826f900581247f606628baf0cd6e46876057b119a",
        "resolved.json": "5f541b4c38235342931414f58a884641834f7458832a2b1b91fa7f5c6587bccd",
        "series.csv": "181a2f1c69440fc2e84749daafbde99e3f69bd4d03075955defe010b6fde1dbf",
    },
    "printed_uncited_group": {
        "cells.csv": "d22487847b2e8d74c86cf0c2ffbb64e32aede98d51f7713cd285fb8f01eee30e",
        "curves.csv": "b3b81fd4da57f985431210722305e0934797299142e8d3876ac5787ce6d35eec",
        "curves_exclusive.csv": "1da9bf3b0a29186036ebc319e73a95f5593122a4aad92acf88aa34079e9299c5",
        "curves_inclusive.csv": "ee2f7e672d53fa7037600a581d470b2cf2316cf65a629b4269ad731846c546d1",
        "data.csv": "a03b695c42ec136f0f344ba8ad896b27d792fcd423fa14b7663a11ccfbd3fd35",
        "exclusions.csv": "d6c11aa8ea345ad40f447ec2c8945d69aedaea55f9ad59d985b1c63af12de915",
        "manifest.json": "74160465cad027e0954dd77b5fd00e2c5e87273a3de1aeca26e7cfbf47245523",
        "resolved.json": "5f541b4c38235342931414f58a884641834f7458832a2b1b91fa7f5c6587bccd",
        "series.csv": "5ac033146b54472827e5a599a23ba4600b3d756e0acfd3eccf86b46c76101ca7",
    },
    "standard": {
        "cells.csv": "79b2fbb6114b7eb7182e62f0ed29928370ea3d5ba5b40ec49c45d972f6234fd8",
        "curves.csv": "707eb5104169249a1a393dc6745d54ee995daa3f8d8a7bca03f29b9e1659fb0b",
        "curves_exclusive.csv": "81085c640b5ec6b904b62c0134d05aa873b7ea50376ff648e5c370f4e78edaa7",
        "curves_inclusive.csv": "480f2d795878f4dc05d2eeb97da34024ed75a96b8400d5ba6b88741db189e37d",
        "data.csv": "d9088cb6bd99c7d0f3a1b7886f93c5f617528c698831eee16c0e7822c2f27e5c",
        "exclusions.csv": "e37b67633b77fed1e62ab1a94fa539b740ceccca8a9bcf52ce603ff5bd28cea5",
        "manifest.json": "7ca76bc3849102399d14c2a70025cc988b73f1b21fb5281f1c75d1864db5fd4f",
        "resolved.json": "5f541b4c38235342931414f58a884641834f7458832a2b1b91fa7f5c6587bccd",
        "series.csv": "6d068ab0010dcfb3cdf1474c2fa714856c344fb3fb12c632176e7f0966e38e5c",
    },
    # recorded on the code before compute_cells filled the grid itself
    "wide_years": {
        "cells.csv": "79b2fbb6114b7eb7182e62f0ed29928370ea3d5ba5b40ec49c45d972f6234fd8",
        "curves.csv": "707eb5104169249a1a393dc6745d54ee995daa3f8d8a7bca03f29b9e1659fb0b",
        "curves_exclusive.csv": "81085c640b5ec6b904b62c0134d05aa873b7ea50376ff648e5c370f4e78edaa7",
        "curves_inclusive.csv": "480f2d795878f4dc05d2eeb97da34024ed75a96b8400d5ba6b88741db189e37d",
        "data.csv": "d9088cb6bd99c7d0f3a1b7886f93c5f617528c698831eee16c0e7822c2f27e5c",
        "exclusions.csv": "e31fd7a5e0c786ed7b68c32902be1c4834c299b192a4a0b934ebc3dcebe309f3",
        "manifest.json": "e310c99cce79f5ad51299cad1ab54a7ec23db5b4cc6db8c3b4b17c0942f0beff",
        "resolved.json": "76cb66acf45aa42acb306b3b41826e40d95ea8ebbabeb7af205d8827fd42a69e",
        "series.csv": "96d5d8da1ade71d0ef0cb6ace6e435fa5a9f2bcc9dea8e04ddcd902d2c1c0751",
    },
    # re-recorded when split-half drew per-bin counts instead of permutations
    "split_half": {
        "cells.csv": "79b2fbb6114b7eb7182e62f0ed29928370ea3d5ba5b40ec49c45d972f6234fd8",
        "curves.csv": "3bfe977431e256cfeab7e4bab52209516edd9e6b72a68ceb85dc821cef287dd8",
        "curves_exclusive.csv": "fc5c42ee54df737389d35aceb6c3b8fb3b0bbe87de7cca24f5e08ddc893d23df",
        "curves_inclusive.csv": "9895615c77c3510f6dde73f465674fb4a4d8142c6c3de7600881889722d94d9f",
        "data.csv": "d9088cb6bd99c7d0f3a1b7886f93c5f617528c698831eee16c0e7822c2f27e5c",
        "exclusions.csv": "acdf564b260ca1435dec48642e22e187cc6249ed8fcb6aa4e0b07fffb6bcefc6",
        "manifest.json": "8aab684b1f990ceb6a577a51964be15710ed658f3052d4b3fbd8e46c8484357c",
        "resolved.json": "5f541b4c38235342931414f58a884641834f7458832a2b1b91fa7f5c6587bccd",
        "series.csv": "6d068ab0010dcfb3cdf1474c2fa714856c344fb3fb12c632176e7f0966e38e5c",
    },
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_bundle_bytes_match_golden(variant, tmp_path):
    config = ExperimentConfig.from_dict(variant_config(variant))
    run_experiment(config, tmp_path)
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.iterdir())
    }
    assert digests == GOLDEN[variant]


PAPER_CONFIG = {
    "input": {"scenario": {**SCENARIO, "n_journals": 36, "year_start": 1996, "year_end": 2014,
                           "rng_seed": 0}},
    "countries": {"top": 10},
    "schemes": ["inclusive", "exclusive"],
    "max_offset": 18,
    "lag0_replicates": 80,
    "seed": 0,
}

# recorded on the code before split-half decisions ran targets-major
PAPER_GOLDEN = {
    "cells.csv": "d5d04b29580f63e07f91d812bafae55b8dbcd36cd77db08e9c9bceaa6e61b0b9",
    "curves.csv": "f72760eb8d7b7e794f8d095eb26b4266cdd1688b44b27bb5e54b53f70bdb52d3",
    "curves_exclusive.csv": "36f30a80e7f7488badc2d6047a609db37f366952880dcffe15ae531ace01dadf",
    "curves_inclusive.csv": "2a9469cbb13ef919ec833e2a7301d640f90a799dd1141dff7a1f9cc90d514efe",
    "data.csv": "5e6349f8307f89988330ca188a2ecede87424d06b3d4f08eb00249f2a73b6ad8",
    "exclusions.csv": "23a8a838bcef4c4346929f08c2d53b9ae92833404a351e411481ef94f733503f",
    "manifest.json": "7dd8252a628359275c7182a2f8452b37068885fafd13ed1ddc708eeb84450eae",
    "resolved.json": "c4bdaaf95df17a6ed13389de2cf65e514f6abf0dc13534a13b9d59385bdec27c",
    "series.csv": "4a5cc1a6b80ceacfadfcf39c75edd7611901119eace84cf4ea524a8e7edeff4b",
}


def test_paper_bundle_bytes_match_golden(tmp_path):
    run_experiment(ExperimentConfig.from_dict(PAPER_CONFIG), tmp_path)
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.iterdir())
    }
    assert digests == PAPER_GOLDEN
