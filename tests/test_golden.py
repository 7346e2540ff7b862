"""Golden digests: the sha256 of every CSV from a fixed set of CLI runs, and
of the manifests that hold no temporary path.

A refactor that claims to change no simulated number must leave every digest
here as it is, under the Python loop and under the compiled kernel.
Regenerate them only in a change that alters the numbers on purpose, and
say so in that change.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from infomarket import _kernel
from infomarket.analytics import moments
from infomarket.cli import main

RUNS = {
    "simulate": ["simulate", "--seed", "3"],
    "jcurve10": ["batch", "--preset", "jcurve10", "--seed", "3", "--sessions", "4",
                 "--runs", "4", "--jobs", "2"],
    "efficiency": ["batch", "--preset", "efficiency", "--seed", "3", "--sessions", "2",
                   "--runs", "3", "--jobs", "1"],
    "jcurve3": ["batch", "--preset", "jcurve3", "--seed", "3", "--runs", "5", "--periods", "6",
                "--steps", "30", "--jobs", "1"],
    "sweep": ["batch", "--preset", "tradercount_sweep", "--seed", "3", "--sessions", "2",
              "--runs", "2", "--periods", "4", "--steps", "20", "--jobs", "2"],
    "noclearing": ["batch", "--preset", "jcurve10", "--seed", "3", "--sessions", "2",
                   "--runs", "3", "--periods", "8", "--no-clearing", "--jobs", "1"],
    "markov3": ["markov", "--preset", "markov3", "--seed", "3", "--periods", "300",
                "--jobs", "2"],
    "stats": ["stats", "--seed", "3"],
    "markov5": ["markov", "--preset", "markov5", "--seed", "3", "--periods", "60", "--jobs", "2"],
    # eight traders take numpy's pairwise order for the cross-trader mean
    "markov8": ["markov", "--traders", "8", "--interval", "5", "--seed", "3", "--periods", "60",
                "--steps", "40", "--states", "1,77,200,256", "--jobs", "2"],
    "ticks": ["stats", "--ticks", "{ticks}"],
    "ticks_large": ["stats", "--ticks", "{ticks_large}"],
}

DIGESTS = {
    "simulate/prices.csv": "08aebf6982b7e87048cb9cefee19c549814e01581875e54ed445f23240914924",
    "simulate/trades.csv": "0501227580f22be48f3316f7c2b8fac0829dda0c3b7f2ac0cc580acd683d9e80",
    "simulate/wealth.csv": "5da845d68baec99816a859c72a080657dbc671d468e03f04cae92555ef742d72",
    "simulate/dividends.csv": "e069ebf6636ff836976d4d7cb38b445324579a1c2ae6a10a9d7781052a113c7d",
    "jcurve10/runs.csv": "4489c38280309b6db7cd9eed865bf3042286261bab4e75f4923466877d55eab4",
    "jcurve10/jcurve.csv": "35ee1ca78ac55fb01aca30f85d4d5d6e810f75e0ef1385896fe6d7ef30401482",
    "jcurve10/pvalues.csv": "4dc8e8f1f690a485e5f04799a40cb192ae5d4535a08f60e35bfde2abe24f8754",
    "efficiency/runs.csv": "5434561d4663d8706e61ccb4034288ea241aedea32c8f2e40bfeeed88520bf0a",
    "efficiency/jcurve.csv": "00d336ad264a7ebb693fee9161a689cc366d9cd5ec46cfe6f031d9730be8a72e",
    "efficiency/pvalues.csv": "13eb2b20197524d8c4bccfd4f320ac60033e11045cf46a931ae4543fc2b15514",
    "efficiency/efficiency.csv": "e02df8468128d249dc62c1981fc1f16238280e8fc5e14ab0a391b3f6eb286acf",
    "jcurve3/runs.csv": "5405c3134a8a764fd91d4d0824d0a42d5676b6bb528c6319696dfc5b596ee3ed",
    "jcurve3/jcurve.csv": "08176d3be54a48d7c8100aa4c62e286ab65875d1e793d5b5a3a6f0005f953b58",
    "jcurve3/pvalues.csv": "a4cc8093a7ae284d221a5412f142ad5dbfd216181f61340afdb0612e90452ae4",
    "sweep/runs_3.csv": "7a4fcb3419b1527affb25a95c1c216b980ebcb178f2114e112e144033e298767",
    "sweep/runs_5.csv": "f0c056f7732b51771c0748027abe93e33af6df55b87faf8a890546e6f9448dac",
    "sweep/runs_7.csv": "6f9c9ab370e357e379e594949d3117d1f7124f621d64c16e0bf30cf3e6140cb5",
    "sweep/runs_9.csv": "103b047dbe028d03e6bd5a517183449af7350c46d1301b4b5ed1945a9898bb3a",
    "sweep/runs_10.csv": "0738456335673ab4bc5772d3be4aaa4f2ee73c005c1c2ba394ae221f8b38bd62",
    "sweep/sweep.csv": "6f3a98b16c9cd649cc45738ba382f6dd356caaa93708c31e66f119e3e75a929a",
    "noclearing/runs.csv": "de959acfea2e22335a028d8759c53f507955088be7e27987669699bf9dfe15d9",
    "noclearing/jcurve.csv": "c511e90af25c2422245be4dd134743c96d29aefd64b646d54c0c24fe19801fe1",
    "noclearing/pvalues.csv": "f3ffaad475361c44304a64d30592a0e9a06c1a5ea4d1fe4820fd6280d32fdd2e",
    "markov3/states.csv": "5253ecfca8bebaae1504e25dae2f07c6649be24b7dfee93f37647f884c1064d5",
    "markov3/tmatrix.csv": "f4926aeb07685b93069352a53e0d3756254e6f53a2a79ecdc7166915b9e05259",
    "markov3/freqs.csv": "1e24c3fb84ead008f9783cd6122b83cf553146efa0f20d8f5d31279101e2ee01",
    "stats/efficiency.csv": "2d941b320bb594e84045fca1f0b57883b1ec6d45719bc087bdbd0ec2ef6b3baa",
    "stats/acf.csv": "a5be97b1d79c0baec4437a6335d2cbd369a19dbace04b3fab75baa1a636cf87f",
    "stats/moments.csv": "a08080e036e0eed26c3ded1875a274b870cef1a5e350fc6126b4f752d3391add",
    "ticks/acf.csv": "762b7671b7886a77102eb520ba36af5b370d0fb9e7c222d97a55d29f7b285671",
    "ticks/moments.csv": "c79948ea4c8b2d8682f3ca99d140c40e6ea9993ccb9c42e409b2972b6ddb8f9e",
    "ticks_large/acf.csv": "b7be8d51368b3b45946151de9e9a635c138a3b23dd3bd51b9a70bb59f9f26a0c",
    "ticks_large/moments.csv": "56c4a0d1247de946236cff2ef5c120ce76d10a897d911f4b471ce1c39c04bd47",
    # The manifests of the runs whose params hold no temporary path.
    "efficiency/manifest.json": "8ba472551b4d7a1c8ca77ed254ec56211561e8013a7bf9e99e7577876634d942",
    "jcurve10/manifest.json": "68eb7e39110efb092f73d47292ac971fa698ef3d7f470f67cc25f029e84f5263",
    "jcurve3/manifest.json": "57f3c7d34c3898d826a32ba7bed4af3c998f528df29b88ffa25f124aeb0e582a",
    "markov3/manifest.json": "736df143569041411cc198bc4ce6e0fc0a24513a281cfd4d0a17ea95a63eb138",
    "markov5/freqs.csv": "3207dacced0e445bbe020d7fdd791947c7d7dff9b3475885a6befa6dbf9281aa",
    "markov5/manifest.json": "f37fc519682f768622dac0723b3dd8757b45054092cf77fba7c73bf2a9a48402",
    "markov5/states.csv": "b47e7050f979a1004b76efb2e0375e2ffd41f545c52dd31c40978df7d755226e",
    "markov5/tmatrix.csv": "db180aae5d287d48326d30da28aea987ccb5ecea0d44417677829a7039c4bace",
    "markov8/freqs.csv": "bd216d126580a84cfcd541c2dd3eac435c2a77829d59425ff0188d30e4fb9319",
    "markov8/manifest.json": "948a5326ed3ccbc87b8550d7fd1f4f5e13f19d01081bc304b3652750e4e299be",
    "markov8/states.csv": "0fc61f624fc3e8eac2808c3149ddbd34ca860ca74c965c7e7ad988546ff06c7d",
    "markov8/tmatrix.csv": "37319eb6cc8f20161e4cf604ddfbcdcdfae3484c0f27237fe1b2bf2db89eec39",
    "noclearing/manifest.json": "582d24e95e4c6651ea23b649e19aaddf6acd9648734c901e83faaca51154bcd9",
    "simulate/manifest.json": "a9883d96e6d523866fe06bc7d0504bfa9346cb1c9fee457f112af5ce6c3c54bc",
    "stats/manifest.json": "153fdb4d8e76fb36c283babccab991d586f221836958a206a386b0346ceda218",
    "sweep/manifest.json": "280392c6d88bee99a52bf1c7dbb556c541a6e07ff287222c064efabe72fc3cea",
}


def _tick_file(path):
    # A deterministic saw-tooth with an irregular period, so returns vary.
    rows = ["time,price"] + [f"{t},{40 + ((t * 37) % 23) * 0.05:.2f}" for t in range(1, 400)]
    path.write_text("\n".join(rows) + "\n")


def _large_tick_file(path):
    # 20 000 ticks: a walk in cents at irregular times, both driven by a
    # fixed linear congruential generator. At this length OpenBLAS splits a
    # dot product across threads, which the ACF must not depend on.
    state, t, cents = 1, 0, 5000
    rows = ["time,price"]
    for _ in range(20_000):
        state = (1103515245 * state + 12345) % 2**31
        t += 1 + (state >> 16) % 7
        cents += (state >> 8) % 5 - 2
        rows.append(f"{t},{cents // 100}.{cents % 100:02d}")
    path.write_text("\n".join(rows) + "\n")


def _outputs(tmp_path_factory, kernel):
    """Every run of RUNS in a fresh directory; the caller picks the kernel."""
    root = tmp_path_factory.mktemp(f"golden-{kernel}")
    ticks = root / "ticks.csv"
    _tick_file(ticks)
    ticks_large = root / "ticks_large.csv"
    _large_tick_file(ticks_large)
    for name, argv in RUNS.items():
        argv = [a.format(ticks=ticks, ticks_large=ticks_large) for a in argv]
        assert main(argv + ["--out", str(root / name)]) == 0, name
    return root


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    # A process whose kernel resolved to nothing runs the Python loop, and
    # run_batch and run_switching_ensemble then run every task in the
    # calling thread.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "_resolved", (None, "the Python loop, the specification"))
        return _outputs(tmp_path_factory, "python")


@pytest.fixture(scope="module")
def compiled_outputs(tmp_path_factory):
    if _kernel.resolve() is None:
        pytest.skip(f"the compiled kernel is unavailable: {_kernel._resolved[1]}")
    return _outputs(tmp_path_factory, "c")


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_golden_digest(outputs, name):
    # Under the Python loop, the specification.
    assert _digest(outputs / name) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_golden_digest_compiled(compiled_outputs, name):
    # The same digests under the compiled kernel.
    assert _digest(compiled_outputs / name) == DIGESTS[name]


# numpy's run-time dispatch targets for x86-64 beyond its X86_V2 baseline:
# AVX2 and AVX-512. Switched off, numpy runs its baseline loops.
NO_VECTOR_DISPATCH = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"

_PORTABILITY_SCRIPT = """
import sys
import numpy as np
from infomarket.analytics import moments
from infomarket.cli import main
print(*map(float.hex, moments(np.load(sys.argv[1]))), flush=True)
sys.exit(main(["stats", "--ticks", sys.argv[2], "--out", sys.argv[3]]))
"""


def test_moments_and_large_tick_stats_hold_without_numpy_vector_dispatch(tmp_path):
    # The same bits where numpy has no AVX2 or AVX-512 code: moments of a
    # heavy-tailed series, whose powers a vector pow would round otherwise,
    # and the large tick file's ACF and moments against their digests.
    rng = np.random.default_rng(21)
    returns = np.round(rng.standard_t(3, 200_000) * 1e-3, 8)
    np.save(tmp_path / "returns.npy", returns)
    ticks = tmp_path / "ticks_large.csv"
    _large_tick_file(ticks)
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_VECTOR_DISPATCH)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PORTABILITY_SCRIPT, str(tmp_path / "returns.npy"), str(ticks),
         str(tmp_path / "ticks_large")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].split() == [float.hex(v) for v in moments(returns)]
    for name in ("ticks_large/acf.csv", "ticks_large/moments.csv"):
        assert _digest(tmp_path / name) == DIGESTS[name], name
