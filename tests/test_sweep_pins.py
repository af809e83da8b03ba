"""Literal pins of every driver's ``fast`` and ``paper`` sweep.

Each pin is a SHA-256 over one line per point, in sweep order:
``<canonical params>|<replicate>|<seed>``.  A point's seed is hashed
from its params, so a param that moves — a new key, a reordered grid,
a value that leaks in from somewhere else — moves every row the figure
reports.  Nothing here runs a simulation: building a sweep is pure.

Regenerate with ``PYTHONPATH=src python -m tests.test_sweep_pins`` only
when a sweep is meant to move, and say in the commit which figures did.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.runner.registry import available_experiments, driver_for

PINS = {
    "fast": {
        "fig08": "65ced0a2eb37e863a45a3f48ab63d0ba8096c4fb7de2d5cd1dd36746cd21a39f",
        "fig09": "2e6ea5f282ac5d01a3ac4a4981ff164b8f8df981e8dde323ec0076ed74ff87a4",
        "fig10": "8b64cdf7832322efdbd99bc7de449f37a8f77102213cc8543f318c8e9b70f473",
        "fig11": "4daa0882a19ce35f293cdd5b3c7f8e87030d9fd4100d772ee56c9a2b712e3731",
        "fig12": "622c4e74e9e4562595809a4b20316213efed6483d20ac1f34027c308ac1dbbc0",
        "fig13": "5abb051eec3c09f9159ee65d8bbe95460d03e13bdf10782914cbba5127531937",
        "fig14": "5299721cd610213378d733bc601f05ba786385ebe4ab2cecd1d8ac5e3d781cdb",
        "fig15": "a44e74cbe1c5fe13f02549288da0cb9b8c6c448083ea289c3da29b8d40f54199",
        "fig16": "3ffbde83d4569eb0ba12b27540fb33c24b757ef1269c56319d9d86a37bf6e0bd",
        "fig17": "1f63c43c5b94892228955518ba128ff987b44280869b8dfad38493dbebc27599",
        "fig18": "780b2045a95d14abff68485a21a7d8a423219aa4968a2039978446c1f7b45701",
        "fig19": "4339f2c8f0404197ac0ac2c79d0678b05f4b19b88036cc3da239641a5cc92410",
        "fig20": "d9d92c014125b95e5117f07188131981ad088e16678367194c0499d03be62cdb",
        "fig21": "d1691b79d3241f8fc1653458eeb21f4438a4f815f9792ee1a910756d097d23ca",
        "fig22": "62069b3f1a57b12576413ac26ecd33f84b0c8d8b364c2f7f94cccf2bbd645dfd",
        "fig23": "3b24301a0b58c1df350388eb36a8a10382675d4fbc617acf36433c07fe92b062",
        "fig24": "1c1ca01e19a4ef7c58d4a62b7516e4ea08ff11365c5888082b7aadbf0ae2974a",
        "fig28": "0f0a4aaf08d72cb2873127a9a939fad48dece2912f8a2c40de1d76a608d65ad2",
        "nqos": "a0cdd6e3babcc7238b31fe3f178cc396a5ff2baf2e22cd9f8f59fafbee152318",
    },
    "paper": {
        "fig08": "31fce68f6a152b970ea4fffe37c9c4e7c4b7caa8938d746a1e74df42363a5f8b",
        "fig09": "c636c5f4e36acc9e5b9aab4dfedcf37124dca58fa5104bc6a1872eadbfb7dd2f",
        "fig10": "f04f79eb85ca423abbfcd9dbc84a3d4f58bb8e4ed1be0885cf1856ddabd4176f",
        "fig11": "05fa82f3236d0d0e602b835ccd80dfcef7394296113eeebcdacf3c12dec08cce",
        "fig12": "793f7f1211fe21bd1bf45987aa3ad57e32f21c5b02b21df756f2a58f31efc1e7",
        "fig13": "07988b5bf0f6e82b00a5bc76ffbb3459890cdca5dd2b77746be14a026d7d8a6e",
        "fig14": "23a9300a7222e0e4001088b0a078dc4bc7be12595760c22652e2851cee68a302",
        "fig15": "b05ef4761c5d06eb6ef0df07bc1e2cdef786090d8a4a1fd55ae56f530d58a5d6",
        "fig16": "bda041912d86b5c2834d7578f49e9afc8f4974eb988ffddfdd1aee2e7e0e3fac",
        "fig17": "e31a681d4097d4307202393389a056d8ce0addbabed00b13272c26e0762ca045",
        "fig18": "989e766b2d9ed3d77d3c0683286fce28e47a5c067d67c0b41010dd77977dd2f4",
        "fig19": "f9a461b415953dd39a4e179451d1b4cb677377270e9a9ffea4121d4fc67c4eca",
        "fig20": "2ee7d10ff0a7dd7d5fff262206a94ec4ded1bfce8c60657d6e04ec32f5dc107b",
        "fig21": "8a9bd43f6d594a8cddf3f38c9dc56ee0f48b7759e4f6a8d1dfeb6caca536188e",
        "fig22": "8e4a8e872b72553f5af834ad3a92f9be466dcd588967dacee09201400f4fc641",
        "fig23": "49fa78b83b1ebc9a35a759ac9aa1118867206e0fd1ceccc3bbec40525f35edef",
        "fig24": "7c93ef0f6defa4274005398c01c8896a79b63f789ce4b62ade3e84cb9d64b8cf",
        "fig28": "be6350eb3727aa4bd881e2a83b2d01ffaba909879dbac0ebc6f44b0dd522b09a",
        "nqos": "83d0306910a60a2500f759367860f1c3ef4528b93fac00cd97397fc7d8f80b52",
    },
}


def sweep_pin(figure: str, profile: str) -> str:
    lines = [
        f"{p.canonical_params()}|{p.replicate}|{p.seed}"
        for p in driver_for(figure).sweep(profile)
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("profile", sorted(PINS))
@pytest.mark.parametrize("figure", available_experiments())
def test_sweep_pin(figure: str, profile: str) -> None:
    assert sweep_pin(figure, profile) == PINS[profile][figure]


if __name__ == "__main__":
    observed = {
        profile: {fig: sweep_pin(fig, profile) for fig in available_experiments()}
        for profile in sorted(PINS)
    }
    print("PINS =", json.dumps(observed, indent=4))
