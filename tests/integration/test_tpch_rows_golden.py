"""Every TPC-H table's generated rows, pinned.

The generator's rows feed every figure: ORDERS' bytes set Figure 2's
Joules, and LINEITEM, PART and SUPPLIER feed Figure 1's plans.  A
faster generator must therefore draw the *same* rows off the same
stream.  Each digest below covers one table's rows (``repr`` of each
row, in order), and the last entry pins the stream position after all
seven builders: the next ``random()`` draw, as ``float.hex``.  They
were recorded from the generator as it stood before its builders drew
through bound primitives, by running this file as a script against
that tree.
"""

import hashlib
import random

import pytest

from repro.workloads import tpch_gen

BUILDERS = (
    ("region", tpch_gen._region_rows),
    ("nation", tpch_gen._nation_rows),
    ("supplier", tpch_gen._supplier_rows),
    ("customer", tpch_gen._customer_rows),
    ("part", tpch_gen._part_rows),
    ("orders", tpch_gen._orders_rows),
    ("lineitem", tpch_gen._lineitem_rows),
)

CASES = [(0.0001, 0), (0.0001, 2009), (0.002, 0), (0.002, 2009)]


def row_digests(scale_factor, seed):
    """``{table: sha256 of its rows}`` plus ``"next": random().hex()``."""
    rng = random.Random(seed)
    counts = tpch_gen._row_counts(scale_factor)
    digests = {}
    for name, build_rows in BUILDERS:
        rows = build_rows(counts, rng)
        sha = hashlib.sha256()
        for row in rows:
            sha.update(repr(row).encode())
            sha.update(b"\n")
        digests[name] = sha.hexdigest()
    digests["next"] = rng.random().hex()
    return digests


@pytest.mark.parametrize("scale_factor,seed", CASES,
                         ids=[f"sf{sf}-seed{s}" for sf, s in CASES])
def test_rows_and_stream_position_are_unchanged(scale_factor, seed):
    assert row_digests(scale_factor, seed) == GOLDEN[scale_factor, seed]


GOLDEN = {
    (0.0001, 0): {
        "region":
            "d78b35b5b4cc16d2c98be52047f7bb7838fb39627434e7910c622bd2ff32f43c",
        "nation":
            "a8ccfa2754b43bb1b1c769c10d7c802e3a339b2c372958099a30bc00f11d0038",
        "supplier":
            "fb331fa073fd2306884e95b83acc2010371d3de2cb426ed8c9cbba3fbfdbc2a7",
        "customer":
            "f50af11336ec970e55f4cec78066b88b2ad80cc0b4d9ba68b3b8a478a7dfe480",
        "part":
            "99066edbc136292162df99c418f17bcf8b1959a6c2ba30910a8c7cd022d38bf2",
        "orders":
            "359fad6c04dadc19a3d4cc7353bbba8355bfb06a6715a517443209d468dfed74",
        "lineitem":
            "d4473407d42cb2ee4be507823c8f2a61409b4f7f9b4ac65e6d498093218b9b39",
        "next":
            "0x1.16ebd12875314p-2",
    },
    (0.0001, 2009): {
        "region":
            "d78b35b5b4cc16d2c98be52047f7bb7838fb39627434e7910c622bd2ff32f43c",
        "nation":
            "a8ccfa2754b43bb1b1c769c10d7c802e3a339b2c372958099a30bc00f11d0038",
        "supplier":
            "652888f839bbc01fcb736c784b1a1f143d42f6e0a1b48cf2c6bebed4a91e6613",
        "customer":
            "da8f8b64ea868130ff52857b3b370b67d2ce0531ad2cfb84737fcac598d6e829",
        "part":
            "5d8ffdb536407caea1b82121f58444f103978057e8eedb6bff3ce5a4592da35a",
        "orders":
            "e5b5d9aa13b06d9c0aa9dbc3feaaaf13cc4f424d97f64665ebbd41f88b594fe3",
        "lineitem":
            "bfc37e613bff4723ef8cf32e350425b55c11884632d33d6f7725b29ada886f65",
        "next":
            "0x1.4a9d4e0418b0dp-1",
    },
    (0.002, 0): {
        "region":
            "d78b35b5b4cc16d2c98be52047f7bb7838fb39627434e7910c622bd2ff32f43c",
        "nation":
            "a8ccfa2754b43bb1b1c769c10d7c802e3a339b2c372958099a30bc00f11d0038",
        "supplier":
            "c11a313bf97af8677a09910bf43333ddf96860b4dee8f8b4fc294f54b9008388",
        "customer":
            "820002a8ea2366093c75a6c30a06c20557ed32756c80e3233f2c1ee9c754da0d",
        "part":
            "36c87a474c8699fa863f26f9e0e4cbe2fcb7a5f7a0685952d53760b859a635a6",
        "orders":
            "014608ea6d7cfca7e6c14185945f8617eedc6df6e821c678f7109cdc903981b5",
        "lineitem":
            "2b6b23c0de7e922c5fbfc1322b629f8ba7303b98f39f7fb2b0c49d65ad97358a",
        "next":
            "0x1.d351ed42169e2p-1",
    },
    (0.002, 2009): {
        "region":
            "d78b35b5b4cc16d2c98be52047f7bb7838fb39627434e7910c622bd2ff32f43c",
        "nation":
            "a8ccfa2754b43bb1b1c769c10d7c802e3a339b2c372958099a30bc00f11d0038",
        "supplier":
            "5924fd01cd743a248aeba53592c17dd79c79b582d4672d7a335f71d62a3ccb0f",
        "customer":
            "c6a09a11783ab40c40b8c758a226a425eb6f4b594b86d92e6a05919ee8c367b3",
        "part":
            "b186319e5821ac1c6e92a388b116c90b633f4e0c8526869e2b8a3ed69fbe037c",
        "orders":
            "ce09016fb665e31e23085550339d23fe88ffb409aa12562dde2b26083fa306b2",
        "lineitem":
            "e2e1dcf691362af3d3839ed4d4cc463c36597586cec8e11aca5e919f9ce88e56",
        "next":
            "0x1.51190b55f0404p-1",
    },
}

if __name__ == "__main__":  # the GOLDEN literal of the tree on the path
    for sf, s in CASES:
        print(f"    ({sf}, {s}): {{")
        for table, value in row_digests(sf, s).items():
            print(f'        "{table}":\n            "{value}",')
        print("    },")
