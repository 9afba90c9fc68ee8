"""Golden output hashes: the byte-for-byte behaviour gate for refactors.

Each entry is a tiny config (two or three rounds, six clients) and the
sha256 of every output file it produces.  Together they cover all twelve
policies, both scheduling modes, a resource shortage, the cumulative gain
target, the saturated fallback after a gain shortfall, the two drops after
the market has allocated (no whole-cell schedule fits the window; the
quantized schedule costs more than it earns), a whole-cell realization
that succeeds only on the full-width retry, both single sensing modes
(under `wsg` the visual rate is 0, so the sensing search stops at width 1,
not 0), streaks longer than one streak batch may take, and quotes whose
capacity passes the 10**7 cap, where a quote's (mtv, mutv) ints differ
from the bounds the solver computes.  One entry keeps the packaged 20
clients: at a low gain factor the market is contested, and five clients
share each round's window.  A change that
moves any hash changes what the simulator computes; such a change must list every
moved hash and the reason in CHANGES.md.  Every golden's outputs must also
keep the invariants `oracles.output_findings` checks, but for the findings
EXPECTED_FINDINGS names.
"""

import functools
import json
from pathlib import Path

import pytest

from mfpsim.baselines import Policy
from mfpsim.config import load_config
from mfpsim.runner import run

from oracles import client_rows, output_findings, output_hashes

TINY = {"rounds": 2, "scenario": {"n_clients": 6, "n_targets": 30}}
# the benchmark's workloads, each with the hashes of its reference run
BENCH = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json").read_text()
)


def _tiny(seed, policy="SISCC", mode="zeros", **extra):
    return {**TINY, "seed": seed, "policy": policy, "mode": mode, **extra}


CONFIGS = {
    "comm_opt": _tiny(3, "COMM_OPT"),
    "comp_opt": _tiny(4, "COMP_OPT", mode="serial"),
    "mc_fc": _tiny(10, "MC_FC", mode="serial"),
    "mc_t": _tiny(9, "MC_T"),
    "ml_c": _tiny(5, "ML_C"),
    "ml_cc": _tiny(6, "ML_CC", mode="serial"),
    "ml_scc": _tiny(7, "ML_SCC"),
    "mlpg": _tiny(11, "MLPG"),
    "mp_tsc": _tiny(8, "MP_TSC"),
    "sens_opt": _tiny(2, "SENS_OPT"),
    "siscc": _tiny(0),
    "siscc_cumulative": _tiny(
        22,
        rounds=3,
        market={"gain_target_mode": "cumulative", "gain_floor": 3.0, "gain_window": 4.0},
    ),
    "siscc_shortage": _tiny(21, resources={"scale": [0.5, 0.5, 0.5]}),
    # a floor no allocation reaches: every round takes the saturated fallback
    "siscc_shortfall": _tiny(23, market={"gain_floor": 30.0, "gain_window": 4.0}),
    "wiscc": _tiny(1, "WISCC", mode="serial"),
    # a narrow compute grid at a dear spectrum price: whole-cell realization
    # fails, also on the full-width retry after the capped one
    "wiscc_no_integral": _tiny(
        511554,
        "WISCC",
        scenario={"n_clients": 6, "n_targets": 100},
        resources={"scale": [0.5, 1.0, 0.1]},
        prices={"freq": 0.5},
    ),
    # the same squeeze under SISCC: a rounded-up schedule loses money
    "siscc_unprofitable": _tiny(
        30, resources={"scale": [0.5, 1.0, 0.1]}, prices={"freq": 0.5}
    ),
    # a narrow spectrum and large uploads: a client's realization under the
    # spectrum-split cap fails and the full-width retry keeps it in the round
    "siscc_full_width_retry": _tiny(
        23406,
        scenario={"n_clients": 6, "n_targets": 100},
        resources={"scale": [1.0, 0.1, 0.3]},
        prices={"freq": 2.0},
        task={"model_up_bits": 1e9},
    ),
    "siscc_wsg": _tiny(3, scenario={"n_clients": 6, "n_targets": 30, "sensing_mode": "wsg"}),
    "siscc_vsg": _tiny(4, scenario={"n_clients": 6, "n_targets": 30, "sensing_mode": "vsg"}),
    # ample pools and a gain worth little per sample: streaks run past 4096
    # samples, so they take several batches
    "siscc_long_streaks": _tiny(
        0,
        resources={"scale": [100, 100, 100]},
        market={"gain_factor": 1e-5},
        prices={"gain": 1e6},
    ),
    # a window of 10**9 cells in every (serial) round: each quote's mtv is
    # the 10**7 cap, which the solves compare workloads with
    "siscc_capped_quotes": _tiny(0, mode="serial", resources={"time_cells": 10**9}),
    "mlpg_capped_quotes": _tiny(11, "MLPG", mode="serial", resources={"time_cells": 10**9}),
    # the packaged fleet at a gain worth a fifth as much per sample: the
    # greedy chooses among several clients in every round
    "siscc_contested": {
        "rounds": 2, "seed": 21, "policy": "SISCC", "mode": "zeros",
        "market": {"gain_factor": 0.002},
    },
}

GOLDEN = {
    "comm_opt": {
        "clients.jsonl": "ce3b3d4d17ef4edde9a6d9e5519f904942d6c5988bbe350582eb6858afb3c856",
        "run.json": "c60478a0a02e15af3176cdfe6535ff6d9b3f7ee50d8e8c3dcb08f8f362cf0a3d",
        "summary.csv": "b4ecd3a74d23c221e366f3eb0fb467566fe124a34e62e62ef8e732bd36d47d82",
        "timeline.csv": "1c2b97ee8f9f3621e98d68e92c375a1e2376833627357a56f98acc71d3c44899",
    },
    "comp_opt": {
        "clients.jsonl": "c9fa6390f5a97ce7f368c547994c89287d31d780d6b4b8b88a6fb7a14e5baa69",
        "run.json": "5eef5f1131f92c7652a6365a7a0fb687dacb718a1092568724776a6d6ebebdad",
        "summary.csv": "604e21e1395dc6b30eae526e60a2eb9d15fd73ef939cd3fa1f49b11a23f5e328",
        "timeline.csv": "454e2095715a103835c9269a60b49f7924cf4de912c4c0ea37fb4fcdf5216150",
    },
    "mc_fc": {
        "clients.jsonl": "a423896ec524796cab0d84b9976cab59978e5db7585a49687ef4603e94ca8c3b",
        "run.json": "a57e5176932c72d22641dd76674ae63343525087454a6d99c73bdefa93d2c403",
        "summary.csv": "b726a36e1d08b0237237ae5d099bb935a99341f562f1d17fb39d327da90da420",
        "timeline.csv": "526a7d70749ae79da57159d27c571bfe76199a79110a46be2aa0606720716310",
    },
    "mc_t": {
        "clients.jsonl": "4734b8c1b739d47efecd10fb96c00a395fa5507442cc16677f8cb9e2c52d6b1d",
        "run.json": "37091fbc3c0c8fe5820efca3fcae985e80a9ad5a180ddca6234104e5d7b6934d",
        "summary.csv": "ae598912f02635da7fdc1c064fa49cbe082f04124d53d3f47aba49dd2ec80c82",
        "timeline.csv": "19d53aaa5c41bc67870262222032538bfb816efb538e9a306d37e817fb1d7e08",
    },
    "ml_c": {
        "clients.jsonl": "fa8a7281d002784a8a002ecc332e3094203fd2ed4b704c945cb395fd2c597c7f",
        "run.json": "c4e89521bf66ba5d6d97a2ecde8def338127a4e4c161a002e230495f6dedd807",
        "summary.csv": "06c40942bde5a7e9ffb9fc26bd9862a35da7b98d091f2dcee713c9cde4b7d1bb",
        "timeline.csv": "a38a2b79bb46c42861080017cf64882554a19491f57903516ec3354374532e13",
    },
    "ml_cc": {
        "clients.jsonl": "bea264e3e136a349511e70bd7182e80f2f5e59bfd4d9afb84d5550a80d295878",
        "run.json": "42556324db35b92d79f9db2400f4cf34f03369cce211d4f3ad269d7d775193ad",
        "summary.csv": "c5bd8fbffc0b9d53e5fc496a47818ba82fbbe6692448e5a59c4cc8e3ef2672b2",
        "timeline.csv": "926582b10dd6e5fc5107d18b265658fb0a2d16515cc7848e867593a5e7a7c715",
    },
    "ml_scc": {
        "clients.jsonl": "94c688c584b93a1b116777b22a29a76731aded783118f938c2a01093e2f8bdf5",
        "run.json": "fe35c44bc5377f350e50a18173854a10bdf2508675ecbf5091973a1303b01170",
        "summary.csv": "2e06c9c55503aeefe6ef7a66b9a585d116189b883b6771d964f93b254331b32d",
        "timeline.csv": "d160b306316e07f13653e53c2b0967691c02649647bd4f30a658cbfb2ad4e5cb",
    },
    "mlpg": {
        "clients.jsonl": "535e1dffc86f7dcd5d3487299bb8a7a226dbf42ab7274f071c2b5a42f32f348c",
        "run.json": "900bd692a6e8631f80012f2fedc565580b507944eb05224a1b1302d3279f8f3c",
        "summary.csv": "3c0f732a2a3f5ead42f719121f542c420e5132804f22f6d61e9b387ce528c304",
        "timeline.csv": "61686386d5891f325a3f180081ebf621b9b4ed607133dbd111ffac7bc44cfd6b",
    },
    "mp_tsc": {
        "clients.jsonl": "83543ba1c00373af02213a201bb04bd0635edabe257f98df03c5661c337c8c40",
        "run.json": "1baddde1509d8ac6a14eca30ccd48f00a0f2a47b5a2a576680f2f42620b2df18",
        "summary.csv": "3813694696da5055e0a7dc07b3c153e03d54138c469ea66bd76f35642991fc88",
        "timeline.csv": "20afa2748037d9a979d2873ebaa41d7ec48c1d3f30b347ecde780717af5addf5",
    },
    "sens_opt": {
        "clients.jsonl": "b7e5cb0586eb06aa32ae899747d83c5d56619b65b4c95f88f6e687b1efb6e4f5",
        "run.json": "41c504d0fa7923231147b714c7b79872a24884152b471f5682a9ae6629e3348c",
        "summary.csv": "7bb39bff195fea35f3a8a160d6865ed3f66d052a3e5a4679765ff65004bd5502",
        "timeline.csv": "3e6599359807259e127e9ece38a1282569118c22e3600a0ac5fd16ba26467987",
    },
    "siscc": {
        "clients.jsonl": "888fc598d1dbda31fd5b7eb22841888c983c3fb351c9e0d34f9939fa002997f1",
        "run.json": "8500a49a30efaa85eb25374f1aa9253afbb29145496ebfb571ff9e143d1d1bc5",
        "summary.csv": "1818922332b3c634f5cdeb5ebb655cd7d4ba77d96a98fad6b23929f998501974",
        "timeline.csv": "6140851561d29595090160dfbb6e0695183073964692c8ae388e26b5796520f5",
    },
    "siscc_cumulative": {
        "clients.jsonl": "d396efbc62c34f99058c5298a973c646c0488706632e1cfab852f4630d7c0f0d",
        "run.json": "32a5c19a985e437815904473d4a0f1e8173ce7a03efbaddc2cc02c7872aa748d",
        "summary.csv": "1f6dc910ba9b1476ca3cecf92499e9f6e4f669974fe6c885bb8b680f227a6da9",
        "timeline.csv": "6286240404216d4bb82d36be69db2d1ca89419086891c5cc85796772e777c31c",
    },
    "siscc_shortage": {
        "clients.jsonl": "201df47823053a5ba2e208e86639440246e50ad741e678e69018a714ba6247d8",
        "run.json": "6a3902f4a1caf3d1ecda70c9a86ae6f4b26b6f184886dd5b0be2963b5dfc3546",
        "summary.csv": "14a6bbe9d0ebfe41054d068dfcf0f62fdf89ce4fa920966155e82c3bb351b895",
        "timeline.csv": "4ec5f29ee6277facde141582f4556a46e2fcc00685b6f4189a0e385a71981a0b",
    },
    "siscc_shortfall": {
        "clients.jsonl": "29514f4d40096a83056af3fd854e72b671fe347eb63f6663eae586067a5db953",
        "run.json": "95505983b0aa3363430526ab450afa48bec95a74a223d33cc56b25924aa6447f",
        "summary.csv": "2a2a5fe04e67a1e0ccf1a258e16db949b2defa19d098e61496f6cdd2c0ad4da5",
        "timeline.csv": "75111d074fceb33ee8c5aebee2b7fee475d95814c8f5f8739061bd0e15588e7f",
    },
    "wiscc": {
        "clients.jsonl": "8a4db195c50c7054081520f716be52fd6d6463347840d6f553ec9ebeac3cff94",
        "run.json": "f0706d0e84f36424c321a3bec314c1fd586833d44c16247d0037f0aea49e4029",
        "summary.csv": "6669713a4eef4038ea48738ec4d58d0fa71063b0fa25a00dda03a7ae8fe5f63f",
        "timeline.csv": "b45613f097e47b40b7562528cc86a30d43f64fdc9f4b8037bec2c652c42dacf9",
    },
    "wiscc_no_integral": {
        "clients.jsonl": "bfb861490ef72439e06c8aa61202882827f7e82f9d0af2526261cf9c84c23373",
        "run.json": "fca10403c3648f5e81983bff562842892dc00249b0f77e71c2a82f34d7f2139b",
        "summary.csv": "16e563dbbf315a3d188f786ee79111d584467a214c4f2083c53b03e67faf28be",
        "timeline.csv": "32227dc3420e9c85b9e9cf2d37fbf1968c31573b3eebdb2dd1464cb64fe5a4d2",
    },
    "siscc_unprofitable": {
        "clients.jsonl": "8ba011297f3e76b16c9485f0980d445f72aa38819773243b20ea9c443a64ec9c",
        "run.json": "89675200981793e4bcad56b1560f655d30e375a84701d0060e34140bba15e809",
        "summary.csv": "789d19da3b4698131bcbb6fbf42c92e10ff9da1771191bdfb27c978433d3ab8c",
        "timeline.csv": "55f0b34287a9483cad9904065bb21bc90a49dfaef5ecbe68bcbe0a9508e891e2",
    },
    "siscc_full_width_retry": {
        "clients.jsonl": "dbdaafde1479f0cfc49146b104b1c7554928a8172791479c56e06fe49642fc3a",
        "run.json": "13b827cb99fa62c202682da9da56f958f6c5b56f84da2f8a9786c88d5f17bbf7",
        "summary.csv": "4c955a776c03e70ea06cddef5751e46c3f1989c5ec9a86616ff3858f20a8c9d1",
        "timeline.csv": "008f3891b6e32142f0b397361eb9b02951b7d86e5998fd133b893931a239901a",
    },
    "siscc_wsg": {
        "clients.jsonl": "d7c0615eb0aa3197c486a476927ae6b36dc7235e77199b874f9e1f225c4d3b0c",
        "run.json": "0f859f8ad929d9457f0f058407c60884c69768ddc5cafcd66e8d72fe277878c4",
        "summary.csv": "03d13e56f3ddac8be85a2417dfa34e693201417b78198e1af4f128bafe81d496",
        "timeline.csv": "3c04131d3b26697d49a341e5c64ce8bb83e001db6abd581cda4633a89c763fd9",
    },
    "siscc_vsg": {
        "clients.jsonl": "3f80879ad5885cccef88efa12797ce9bb9e0f982d7a1a8e8560707cce64df006",
        "run.json": "35dc81ad43596cf2ffe2294b50971c26a1ca44e151e05517d970ede30db2f12e",
        "summary.csv": "2a013bf0e726919a577922e7cee9658ab2a579a2c750698897d270e47b5a1619",
        "timeline.csv": "0ad59a9388955f87da2b3d1e8459b3b2bd85d12b661cd826103520b2d8e1f047",
    },
    "siscc_long_streaks": {
        "clients.jsonl": "6e72bbf2eeb781af652f4b91d71426e143fa55ca80740fdf37f9c8e0cd7a9802",
        "run.json": "7ececf20c557ea59c8e3c0b14e564c662f4f6ecb82ac9a7ac1ca7d364e99f23a",
        "summary.csv": "d3dce47e9d437779aa78584a66c7089a774d18ed61b7f0d7fcfd12002e13f176",
        "timeline.csv": "fdbf16d009114d64538b82db759c5cd7a92f1a181179dbf06183ede10a5bff46",
    },
    "siscc_capped_quotes": {
        "clients.jsonl": "4bb8554bf08df7b70e0755caa000bb7f075a5333104169f5d04423a86d491c06",
        "run.json": "dcf9fd0112880c3a3d2a4c428dd42df9067a84421204a1435e63c77147e60eef",
        "summary.csv": "ffeb1fbdb56fee0d24627b241f8c827f55daed848b8bb9a5fc01a4d5ed127a93",
        "timeline.csv": "eaf27c22c151a53d742b114d83e5f6d26e24312c78cde5473885a25cf602e623",
    },
    "mlpg_capped_quotes": {
        "clients.jsonl": "7f421e903f79d29359ce057789b6b9ed39a7f61cc7650d2184c73aeb5a196384",
        "run.json": "ab6f7ddcae7b23b60b9df56845da42ef12b39ee4fa0a9bea946973729f5267d6",
        "summary.csv": "2e9c29be93ded41d986f8f9227316d9a13198b94c9fe00e12e72f1dc0c735f41",
        "timeline.csv": "3eb2787fa5c9a6b403d983b59aac92d1c06d3ac130fc6d107d6739c1f3814959",
    },
    "siscc_contested": {
        "clients.jsonl": "cfcf1b045e1c08bc40aca52ce8581f90ce8361319820372a8c3e715988ea0327",
        "run.json": "f2ecd663d7cf4eded342d048d4b8823eb53282a528efba37efa1e0aa7c3a9c9c",
        "summary.csv": "18cb8605ab8e60522310767faf7ee01a123c93f1c9cba168d689818a3ede4e75",
        "timeline.csv": "f6aa3c79d987a3b999d71dcc5e3f165e2df142864c7364bf9be3bfe055b8bcdf",
    },
}


# the findings `output_findings` is known to report: WISCC allocates on the
# fleet's mean gain rate but settles on the true rates, so the gain it pays
# for can pass the window's ceiling, until settlement decides what gain past
# the ceiling is worth
EXPECTED_FINDINGS = {"wiscc": ["round1:gain_ceiling"]}


@functools.cache
def _record(name):
    """The run of golden `name`, shared by the tests that read its outputs."""
    return run(load_config(CONFIGS[name]))


def test_golden_covers_every_policy_and_mode():
    cfgs = [load_config(c) for c in CONFIGS.values()]
    assert {c.policy for c in cfgs} == set(Policy)
    assert {c.mode for c in cfgs} == {"zeros", "serial"}
    assert set(CONFIGS) == set(GOLDEN)


def test_golden_contested_market_activates_several_clients():
    rows = _record("siscc_contested").summary_rows
    assert rows and all(r["active_count"] >= 3 and not r["shortfall"] for r in rows)


def test_golden_reaches_the_shortfall_fallback():
    rows = _record("siscc_shortfall").summary_rows
    assert rows and all(r["shortfall"] and r["active_count"] > 0 for r in rows)


@pytest.mark.parametrize("name", ["siscc_capped_quotes", "mlpg_capped_quotes"])
def test_golden_quotes_hit_the_capacity_cap(name):
    rows = client_rows(_record(name).output_texts())
    assert rows and all(r["mtv"] == 10**7 for r in rows)
    assert any(r["n"] > 0 for r in rows)


@pytest.mark.parametrize(
    "name, note",
    [
        ("wiscc_no_integral", "no integral schedule fits the window"),
        ("siscc_unprofitable", "unprofitable after quantization"),
    ],
)
def test_golden_reaches_the_drop_path(name, note):
    rows = client_rows(_record(name).output_texts())
    assert any(r["note"] == note for r in rows)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_output_hashes(name):
    assert output_hashes(_record(name)) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_outputs_keep_their_invariants(name):
    texts = _record(name).output_texts()
    assert output_findings(texts, load_config(CONFIGS[name])) == EXPECTED_FINDINGS.get(name, [])


@pytest.mark.parametrize("size", ["full", "tiny"])
@pytest.mark.parametrize("workload", sorted(BENCH["workloads"]))
def test_benchmark_reference_output_hashes(workload, size):
    spec = BENCH["workloads"][workload]
    cfg = {**spec["config" if size == "full" else "tiny_config"], "seed": BENCH["reference_seed"]}
    assert output_hashes(run(load_config(cfg))) == spec["baseline_hashes"][size]
