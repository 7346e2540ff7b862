"""Golden digests: the sha256 of every CSV from a fixed set of CLI runs.

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
    "noclearing": ["batch", "--preset", "jcurve10", "--seed", "3", "--sessions", "2",
                   "--runs", "3", "--periods", "8", "--no-clearing", "--jobs", "1"],
    "markov3": ["markov", "--preset", "markov3", "--seed", "3", "--periods", "300",
                "--jobs", "2"],
    "stats": ["stats", "--seed", "3"],
    "ticks": ["stats", "--ticks", "{ticks}"],
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
    "noclearing/runs.csv": "a157ea92d5542c94b2c7a5197579be770f30cc356cab0bb8738bb09d9f92ad5f",
    "noclearing/jcurve.csv": "824071116189e374eadc7fdf5492c4e0b05ac9b42846118c4ed4917aa6ac1c2c",
    "noclearing/pvalues.csv": "d7699e0efc5ef61174dff73165628f7fcdca21ae45e90961e7d259020c0c833b",
    "markov3/states.csv": "9d2fdbb2c8de64ec073e7a9f69c38b51950a1d066570a35f7c982b1b3e6f155a",
    "markov3/tmatrix.csv": "3207e005b73e6b8a79caf5c35b781cd050317585ce09c37c94eec44cf966cabb",
    "markov3/freqs.csv": "81f0a2dd4b9f52b8c3429caef10a655c6a1f1b64c5d10052c8efd2dd5095c1b6",
    "stats/efficiency.csv": "188b82e5c9409feaafbacdf2af1c071e0400051f01e6e501e0608ee286ad4eb0",
    "stats/acf.csv": "d0f67e1bf91d6b9de8c91cf8e4dec5f1d37948984ecf4080c9939ba7f196f343",
    "stats/moments.csv": "db1364931c42e5c2142d39c725365cef87edca0652ecfd4b71a3466749e38489",
    "ticks/acf.csv": "dee3c73527348038868dedbd708e32de73f9728a082cdc69fd0e6e7ac3b22ec5",
    "ticks/moments.csv": "c79948ea4c8b2d8682f3ca99d140c40e6ea9993ccb9c42e409b2972b6ddb8f9e",
}


def _tick_file(path):
    # A deterministic saw-tooth with an irregular period, so returns vary.
    rows = ["time,price"] + [f"{t},{40 + ((t * 37) % 23) * 0.05:.2f}" for t in range(1, 400)]
    path.write_text("\n".join(rows) + "\n")


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    ticks = root / "ticks.csv"
    _tick_file(ticks)
    for name, argv in RUNS.items():
        argv = [a.format(ticks=ticks) for a in argv]
        assert main(argv + ["--out", str(root / name)]) == 0, name
    return root


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_golden_digest(outputs, name):
    digest = hashlib.sha256((outputs / name).read_bytes()).hexdigest()
    assert digest == DIGESTS[name]
