"""Golden digests: the sha256 of every CSV from a fixed set of CLI runs, and
of the manifests that hold no temporary path.

A refactor that claims to change no simulated number must leave every digest
here as it is. Regenerate them only in a change that alters the numbers on
purpose, and say so in that change.
"""

import hashlib

import pytest

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
    "simulate/prices.csv": "38117abad4c1a52a407c6ac46fe268d1823eeadf8945f611c2a54b9eb7a60068",
    "simulate/trades.csv": "055704c2dbcee766bdd808aa88c8508888dd7e0adead8641fb6ca5bd80440f3f",
    "simulate/wealth.csv": "a38750819e75e58589324f5cd6f05fd1476b875141f5d96b2402aa73f3c389db",
    "simulate/dividends.csv": "e069ebf6636ff836976d4d7cb38b445324579a1c2ae6a10a9d7781052a113c7d",
    "jcurve10/runs.csv": "65cd284206da070fee4a80dd4d4f9768b7e47bed0738dcb0365c02cd533777f0",
    "jcurve10/jcurve.csv": "62f1a4b3718c4514b2fe9b286fe259cd8067e4a873d7b22d5daf12c21f92e5e9",
    "jcurve10/pvalues.csv": "3a7f957184e4c454d71301078a759c5bcf302f5d2ed10635d0970cb07fc27784",
    "efficiency/runs.csv": "c6fd53c1bcd0c2d8b4aee3928e2785f3b7f10822fcd92e87bdbf5b05e9f7ca5b",
    "efficiency/jcurve.csv": "4601c2ef427d045711e2ded8638009e7c1e0072f97a6bfbb4a8f954e9f3f66b4",
    "efficiency/pvalues.csv": "26ee46bb5d0c77715c5e1922d9b86d9f5bfe1ceb9dfcabcabf80f1130484eedd",
    "efficiency/efficiency.csv": "08479667b5670c55dd279a2ce5aa9bbe9752b650bd4f274d8b3f5dfb0276241b",
    "jcurve3/runs.csv": "0081441dcad8916ec5d86760dab9677818ef80259922db90dbc481dd1ed6d0f5",
    "jcurve3/jcurve.csv": "d74a90ee35b5c95f293f46e0e8f89323c076aa854d0ea21b34b6c0de3e9ee7ab",
    "jcurve3/pvalues.csv": "7313b15352431b79b6b1510bc607c1416af8b031b1ddce8192a2697f908b604e",
    "sweep/runs_3.csv": "1376b0eb2a5b3ca38b50adbdd026324152573752104d1c84a675bfa9c344a409",
    "sweep/runs_5.csv": "29ac323cd71695a3cee2630554cfa6207606c03519cb746fb2ab6d468236e87f",
    "sweep/runs_7.csv": "c13ed29fdbe189ddfe28075595ef66e123d512b9be7c847c3cf9859c37fae0b7",
    "sweep/runs_9.csv": "c8ed49c45e441959bfc8d186ac9c85fdd7789d33679fd2fc9828bb13f0f3af47",
    "sweep/runs_10.csv": "7132648f38abf0890bd896cdbf9c9eff5af57d8565e536111934005c6d48a6f0",
    "sweep/sweep.csv": "29c5415cd21dbf896eca0eb50264b4c0bd818bcab5a5f43fc5858e7db58438a6",
    "noclearing/runs.csv": "a157ea92d5542c94b2c7a5197579be770f30cc356cab0bb8738bb09d9f92ad5f",
    "noclearing/jcurve.csv": "824071116189e374eadc7fdf5492c4e0b05ac9b42846118c4ed4917aa6ac1c2c",
    "noclearing/pvalues.csv": "d7699e0efc5ef61174dff73165628f7fcdca21ae45e90961e7d259020c0c833b",
    "markov3/states.csv": "9d2fdbb2c8de64ec073e7a9f69c38b51950a1d066570a35f7c982b1b3e6f155a",
    "markov3/tmatrix.csv": "3207e005b73e6b8a79caf5c35b781cd050317585ce09c37c94eec44cf966cabb",
    "markov3/freqs.csv": "81f0a2dd4b9f52b8c3429caef10a655c6a1f1b64c5d10052c8efd2dd5095c1b6",
    "stats/efficiency.csv": "188b82e5c9409feaafbacdf2af1c071e0400051f01e6e501e0608ee286ad4eb0",
    "stats/acf.csv": "4be9417c41baab72e7bcc676e08049213d3043ffc04d7ca485ccf2668665e6bc",
    "stats/moments.csv": "db1364931c42e5c2142d39c725365cef87edca0652ecfd4b71a3466749e38489",
    "ticks/acf.csv": "762b7671b7886a77102eb520ba36af5b370d0fb9e7c222d97a55d29f7b285671",
    "ticks/moments.csv": "c79948ea4c8b2d8682f3ca99d140c40e6ea9993ccb9c42e409b2972b6ddb8f9e",
    "ticks_large/acf.csv": "b7be8d51368b3b45946151de9e9a635c138a3b23dd3bd51b9a70bb59f9f26a0c",
    "ticks_large/moments.csv": "8183f6c29c31b18cfaa2b71ba42113015b1363d2eedfb45367504384b0aa92f8",
    # The manifests of the runs whose params hold no temporary path.
    "efficiency/manifest.json": "7bcbe61b74e9406d69da79b871c94a51c5584c2999fbdff326288d49c8cbaf0e",
    "jcurve10/manifest.json": "a6755a5e767464ae02643291c94f523a9333b9613c3385d41253bb07a15a46cf",
    "jcurve3/manifest.json": "cc7de23c4a0b1cf601822e92c6f0c64203856e0476e95663ab21348f0ef1f810",
    "markov3/manifest.json": "41a7e213273f59337a02da5a7c6306782c61177ed7c87bcfbb674d370dfbac7e",
    "markov5/freqs.csv": "a51c50c6dde47026be4d6cb54c6f615b416bcb2596bef83787ba53cab9fc5903",
    "markov5/manifest.json": "559859161cd9c0fc787b50a05b25490341c44be8f2172b3ff50f2c6b6b20bfcb",
    "markov5/states.csv": "6e2364e2ebd59f884400b3435ec2a2f5d92412ed476f1ddce1c14ab539de240a",
    "markov5/tmatrix.csv": "f52230ef1773a79edffba8ee758cd596618f045aad529d5033e648f1c091909f",
    "markov8/freqs.csv": "fb2a5b06db3bdd3494fa2e830836c451bcc2600839b84187c53dc1646c60afae",
    "markov8/manifest.json": "2bd2cca3c8d68bc67fc7fad902bae7f69a406c691f57a452dd4dd08bb0034a22",
    "markov8/states.csv": "f2254b2de143f2466ef28b74f178ac4ae51256e5105b5851b80074893c6a130f",
    "markov8/tmatrix.csv": "a47ca0063ea46b1f4f022d6875ec39b0941303e25e5caaf20a9e90bee5c1af2e",
    "noclearing/manifest.json": "a681c1eb5af7e16211dabd4fcecd480b0403a882ff3484adacbc1e05f1734bf1",
    "simulate/manifest.json": "99135d53cbd864f14433e1e467d9ae71a74fad26eacfba83d68d4cefddaa9bef",
    "stats/manifest.json": "40a186ab900658bbc5213264327114a6698bd858f5e03c64982921354f5cb597",
    "sweep/manifest.json": "4329b9b43a3c9b138ddb67753b3594decd9196d630b8173898f2aeb4b86d3838",
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


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    ticks = root / "ticks.csv"
    _tick_file(ticks)
    ticks_large = root / "ticks_large.csv"
    _large_tick_file(ticks_large)
    for name, argv in RUNS.items():
        argv = [a.format(ticks=ticks, ticks_large=ticks_large) for a in argv]
        assert main(argv + ["--out", str(root / name)]) == 0, name
    return root


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_golden_digest(outputs, name):
    digest = hashlib.sha256((outputs / name).read_bytes()).hexdigest()
    assert digest == DIGESTS[name]
