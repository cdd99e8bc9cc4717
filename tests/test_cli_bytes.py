"""The exact bytes of `classify-tf`, `classify-bn`, `scan` and `polygon` output.

Each case is one argv; its digest is the sha256 of the exit code, the
stdout and the bytes of the file it writes, so any change to any rendering
shows here.  The cases cover every format, the verbose listing, thresholds
that absorb different runs, the `--c2` and `--a` forms, a negative degree,
an empty semistable locus, the default window, all three locus verdicts,
the exceptional vector, threshold-sensitive alphas, n = 0, and the three
kinds of polygon picture (with a chord, without one, and the empty-window
banner).  The scan rectangles, in CSV and JSON at thresholds 1, 0 and -1,
hold all three verdicts, the n = 0 row, the exceptional point and alphas
that a threshold of 0 or -1 drops.  The large cases add the README `scan`
example, 480 rows of long quotient lengths on `h2 = 6` at thresholds 1 and
-1, and three classify outputs where the quotient cap binds.
"""

import hashlib

import pytest

from moduli_atlas.cli import CONFIG_ENV, main

FORMATS = ("text", "csv", "json")

TF = "classify-tf --h2 4 --deg 2 --c2 10 --m-max 4"  # pairings 4, 0, -12, -32
TF_CASES = [
    f"{TF} --format {fmt} --threshold {t}{verbose}"
    for fmt in FORMATS
    for t in (-1, 0, 5)
    for verbose in ("", " --verbose")
] + [
    f"classify-tf {rest} --format {fmt}"
    for rest in (
        "--h2 2 --deg 3 --a 5 --m-max 3",  # the rigid vector, via --a
        "--h2 2 --deg 3 --c2 6 --m-max 3 --verbose",  # the same vector, via --c2
        "--h2 2 --deg -3 --a 8 --m-max 1 --verbose",  # negative degree
        "--h2 2 --deg -2 --c2 8 --m-max 2 --verbose",  # negative degree, semistable
        "--h2 2 --deg 3 --a 9 --m-max 3",  # semistable locus empty: the note
        "--h2 2 --deg 4 --c2 12",  # the default window ceil(4/2) + 8
    )
    for fmt in FORMATS
]

BN_CASES = [
    f"classify-bn {rest} --format {fmt}"
    for rest in (
        "--h2 2 --n 1 --N 5",  # whole Hilbert scheme
        "--h2 2 --n 3 --N 2",  # empty locus
        "--h2 2 --n 3 --N 6",  # the exceptional vector (2, 3, 5): the note
        "--h2 2 --n 3 --N 7",  # beta and threshold-sensitive alphas (pairing 0)
        "--h2 2 --n 5 --N 20 --threshold 1",  # pairing 1: sensitive
        "--h2 2 --n 8 --N 40",  # two alpha runs, beta
        "--h2 2 --n 12 --N 60 --threshold -1",  # three runs, no beta
        "--h2 4 --n 1 --N 4",  # a single beta
        "--h2 2 --n 0 --N 0",  # n = 0
        "--h2 2 --n 0 --N 3",
    )
    for fmt in FORMATS
]

SCAN_CASES = [
    f"scan {rect} --format {fmt} --threshold {t} --out table"
    for rect in (
        # n = 0; whole at (1, 5); empty at (3, 2); exceptional at (3, 6);
        # pairing-0 alphas at (3, 7)
        "--h2 2 --n-range 0..3 --N-range 0..12",
        # pairing-1 alphas at (5, 20); two alpha runs at (8, 40)
        "--h2 2 --n-range 5..8 --N-range 18..40",
        "--h2 4 --n-range 0..2 --N-range 0..9",
    )
    for fmt in ("csv", "json")
    for t in (1, 0, -1)
]

LARGE_CASES = [
    "scan --h2 2 --n-range 1..3 --N-range 0..12 --out table.csv",  # the README example
    "scan --h2 2 --n-range 1..3 --N-range 0..12 --format json --out table.json",
    *(f"scan --h2 6 --n-range 9..12 --N-range 100..219 --threshold={t} --format {fmt} --out heavy{t}.{fmt}"
      for t in (1, -1) for fmt in ("csv", "json")),  # long quotient lengths: the cap rejects most types
    "classify-bn --h2 2 --n 40 --N 700 --format csv",  # the quotient cap binds
    "classify-bn --h2 6 --n 12 --N 150 --threshold=-1",
    "classify-tf --h2 4 --deg 9 --c2 120 --m-max 20 --format csv",  # a wide window
]

POLYGON_CASES = [
    "polygon --h2 2 --deg 3 --a 5 --m-max 3 --out p.svg",  # chord and polygons
    "polygon --h2 4 --deg 2 --c2 10 --m-max 4 --threshold 0 --out p.svg",
    "polygon --h2 2 --deg 3 --a 9 --m-max 4 --out p.svg",  # no chord
    "polygon --h2 2 --deg 3 --a 9 --m-max 2 --out p.svg",  # no components in window
    "polygon --h2 2 --deg 0 --a -4 --m-max 0 --out p.svg",  # chord only
]

# sha256 of repr(exit code), stdout and the written file, in that order
DIGESTS = {
    "classify-tf --h2 4 --deg 2 --c2 10 --m-max 4 --format text --threshold -1":
        "351c7f479d59def7e0e703c4a92380e24c0b9283182a7273d8b56ea4d632a9a2",
    "classify-tf --h2 4 --deg 2 --c2 10 --m-max 4 --format text --threshold -1 --verbose":
        "f4d7783a065860323b427bb4c0b2894e3458f720771e6be872c9430c6505d7af",
    "classify-tf --h2 4 --deg 2 --c2 10 --m-max 4 --format text --threshold 0":
        "3bb4d3bd6cf24804e7d8510ac4e914644ceef059eb1b17853ee2440a78a67e18",
    "classify-tf --h2 4 --deg 2 --c2 10 --m-max 4 --format text --threshold 0 --verbose":
        "13750055be9447c01ae92e31a6fbb8d61a03d047ab7840cbe0888b9889109e58",
    "classify-tf --h2 4 --deg 2 --c2 10 --m-max 4 --format text --threshold 5":
        "1d93cab580c2c88007cd4eb03bef871ccd23cc13a8a3f4981f5e24b7d74f0330",
    "classify-tf --h2 4 --deg 2 --c2 10 --m-max 4 --format text --threshold 5 --verbose":
        "1d93cab580c2c88007cd4eb03bef871ccd23cc13a8a3f4981f5e24b7d74f0330",
    "classify-tf --h2 4 --deg 2 --c2 10 --m-max 4 --format csv --threshold -1":
        "f7534584d47240790c2f2d7aa3bd37a2bd853e5f2bdb36fd3c90e6539c294bce",
    "classify-tf --h2 4 --deg 2 --c2 10 --m-max 4 --format csv --threshold -1 --verbose":
        "039d15ec99ca5c88e21533b329bf1a83d7195df750e7cd446c216bfa6777d573",
    "classify-tf --h2 4 --deg 2 --c2 10 --m-max 4 --format csv --threshold 0":
        "af8d6f6afe1f8442fdbf4a8c5e2832566fa1ed12de9953eddf84e19365fb65e8",
    "classify-tf --h2 4 --deg 2 --c2 10 --m-max 4 --format csv --threshold 0 --verbose":
        "3595f231fda7b19e9d8d77c9fa415e2c1f4a30739d9ec359af3aa01942e38249",
    "classify-tf --h2 4 --deg 2 --c2 10 --m-max 4 --format csv --threshold 5":
        "727a1b251342ca88cf79748b4d438a470bc016f7102657b106c8d5f160ec8919",
    "classify-tf --h2 4 --deg 2 --c2 10 --m-max 4 --format csv --threshold 5 --verbose":
        "727a1b251342ca88cf79748b4d438a470bc016f7102657b106c8d5f160ec8919",
    "classify-tf --h2 4 --deg 2 --c2 10 --m-max 4 --format json --threshold -1":
        "313e59e65bb7a2a883ef9372cd61e0d2e9a63fa1ddb831c07a1e3c37138a3859",
    "classify-tf --h2 4 --deg 2 --c2 10 --m-max 4 --format json --threshold -1 --verbose":
        "f5235af30ade085b97a6bf5f307fc343e9c31902b8da6b15601f764df4dd0e25",
    "classify-tf --h2 4 --deg 2 --c2 10 --m-max 4 --format json --threshold 0":
        "6147404e562df0fd824be9e0df7af25e0b1858b64d31aa5307998bf187b7965d",
    "classify-tf --h2 4 --deg 2 --c2 10 --m-max 4 --format json --threshold 0 --verbose":
        "32696fa422de3202795d9e5c6dc4a3c4b48ae4914018936fe2b1ebf287cb1732",
    "classify-tf --h2 4 --deg 2 --c2 10 --m-max 4 --format json --threshold 5":
        "43993f978cdeabadfab5ad8b8cf5a7c0ed302fb7e75a0e526106d8a29fdb701b",
    "classify-tf --h2 4 --deg 2 --c2 10 --m-max 4 --format json --threshold 5 --verbose":
        "43993f978cdeabadfab5ad8b8cf5a7c0ed302fb7e75a0e526106d8a29fdb701b",
    "classify-tf --h2 2 --deg 3 --a 5 --m-max 3 --format text":
        "acdaa86853572f7351d4eda50dea4b884f379cc7519aff2d3fadea6e849f1875",
    "classify-tf --h2 2 --deg 3 --a 5 --m-max 3 --format csv":
        "9721affa656ad6a398b6b80d9101b8cdb8df77a7f55bc034ee5b67f33d9cfc6d",
    "classify-tf --h2 2 --deg 3 --a 5 --m-max 3 --format json":
        "ebb872c804f70f1139ba3bb3689493eaf420b33a632ae513e69c3cb361611980",
    "classify-tf --h2 2 --deg 3 --c2 6 --m-max 3 --verbose --format text":
        "acdaa86853572f7351d4eda50dea4b884f379cc7519aff2d3fadea6e849f1875",
    "classify-tf --h2 2 --deg 3 --c2 6 --m-max 3 --verbose --format csv":
        "9721affa656ad6a398b6b80d9101b8cdb8df77a7f55bc034ee5b67f33d9cfc6d",
    "classify-tf --h2 2 --deg 3 --c2 6 --m-max 3 --verbose --format json":
        "ebb872c804f70f1139ba3bb3689493eaf420b33a632ae513e69c3cb361611980",
    "classify-tf --h2 2 --deg -3 --a 8 --m-max 1 --verbose --format text":
        "bdeadd883e694af99b41695b8fee5be4baa55d5c3cbd4c93b16cdc27b71bf818",
    "classify-tf --h2 2 --deg -3 --a 8 --m-max 1 --verbose --format csv":
        "98f3b4ef731dc5cc55e4033d228661da8f0232cabccaaeb3d82f05cb506a4578",
    "classify-tf --h2 2 --deg -3 --a 8 --m-max 1 --verbose --format json":
        "20722894a1cda980cccf8ffbb02d1039aa33a46415558c2729693fed2a2c17f5",
    "classify-tf --h2 2 --deg -2 --c2 8 --m-max 2 --verbose --format text":
        "0c317ac1db6d441fbcecbca836b44a8934d9b0b162acbab5ce9e5e81732b2da4",
    "classify-tf --h2 2 --deg -2 --c2 8 --m-max 2 --verbose --format csv":
        "19170fa2a2ceb1a54b51c9419bb2a576a6c17c9b3e89cf6b2074d70a7d8a25c8",
    "classify-tf --h2 2 --deg -2 --c2 8 --m-max 2 --verbose --format json":
        "55fec96a54e26968ac494db27add4afe390a54432df548496c3826c3458692d4",
    "classify-tf --h2 2 --deg 3 --a 9 --m-max 3 --format text":
        "9b64fd7e80baf764495ebc0c7d6f996ba05148f7bfa8b6948a4a23f1a29f617b",
    "classify-tf --h2 2 --deg 3 --a 9 --m-max 3 --format csv":
        "1eb04cf861d3d89e8b191909d5b5ed32a58c5f61f4c1d02078f2d15b4bf38f24",
    "classify-tf --h2 2 --deg 3 --a 9 --m-max 3 --format json":
        "86a2c5503639fe0c806797c83ffb31db0a4c53c75dc739f7cee41a3c15aa0429",
    "classify-tf --h2 2 --deg 4 --c2 12 --format text":
        "8adc504e6091f5e2c59e780b48652f452c5eae19f1e631c188d31250a8fb090b",
    "classify-tf --h2 2 --deg 4 --c2 12 --format csv":
        "6225d88ab4fe5a4f102935b4f7abba706322f639f39296f33d2abe64625cdf46",
    "classify-tf --h2 2 --deg 4 --c2 12 --format json":
        "b19c9f0b0db299a32c2c014127c7c9e4b8bfce139eab06f09c3da7504390bcb9",
    "classify-bn --h2 2 --n 1 --N 5 --format text":
        "4aa2a8b074eaaab583bc96bf53f1679b30eab3f5436fa6c22daa8ac230a7bb4f",
    "classify-bn --h2 2 --n 1 --N 5 --format csv":
        "7aeacec1662d979e455c56707d6807e99c1b5ddcf3c95c88ac62e0b731167c7a",
    "classify-bn --h2 2 --n 1 --N 5 --format json":
        "31e8821c68634bc6a99f115caf6485555737daa3d9c7cc638a0df2421db5a628",
    "classify-bn --h2 2 --n 3 --N 2 --format text":
        "d60c5e47f966aca5606ab32041a76fa8ea60287067d463252eac2c7b0faae0fa",
    "classify-bn --h2 2 --n 3 --N 2 --format csv":
        "7aeacec1662d979e455c56707d6807e99c1b5ddcf3c95c88ac62e0b731167c7a",
    "classify-bn --h2 2 --n 3 --N 2 --format json":
        "4c15390005780aaeb4e6dbee126c998ecd3898800d68ec48d90bb19051459e8d",
    "classify-bn --h2 2 --n 3 --N 6 --format text":
        "7af3a98be035ef5f72d3aaf86147fdde2c2524c3fa8f451fc9b54260c060e60a",
    "classify-bn --h2 2 --n 3 --N 6 --format csv":
        "0c1be52408e7c50c62b35eb6a28469b5e0b0e61a167b10eadc1ccb2d522652c4",
    "classify-bn --h2 2 --n 3 --N 6 --format json":
        "67e48fb6ba4e645a66c827fbdffa5f08f5c9787eda0d266c3ccac1888e339264",
    "classify-bn --h2 2 --n 3 --N 7 --format text":
        "3d763a47f5756dd3caca1527a0d320d97fd16fefcd2a258dc6468db806ab2d5f",
    "classify-bn --h2 2 --n 3 --N 7 --format csv":
        "a31517328efd6490cbf337b7c530a2d65487cccd9ccbf9d4523d15ba81855dcc",
    "classify-bn --h2 2 --n 3 --N 7 --format json":
        "23a75afabea66e20596c8473ee8e9f1095a733a4f7713e3bdd32b6c157de6a2a",
    "classify-bn --h2 2 --n 5 --N 20 --threshold 1 --format text":
        "c7ee7f9760a085c769d34c7faaf0d9eb418a6c317fad61c7c0ad573043ffc558",
    "classify-bn --h2 2 --n 5 --N 20 --threshold 1 --format csv":
        "07b8340086142a47874ffb003f422ea941f643e619188f3d0944260e5ed620b7",
    "classify-bn --h2 2 --n 5 --N 20 --threshold 1 --format json":
        "e7afb17eae94f2500efe8d265081535902ad9ccf08a553eaf6391e9606b6f1c0",
    "classify-bn --h2 2 --n 8 --N 40 --format text":
        "60b1eb1f21cec7d07d0d229da5b57a91a8d2d1c6e357d56a677ac58bad1d157f",
    "classify-bn --h2 2 --n 8 --N 40 --format csv":
        "bce0b3384c3f48fb0de1aaff4dbba9c28fcb13befc30a8db20b620895cbd5102",
    "classify-bn --h2 2 --n 8 --N 40 --format json":
        "1e03a4132c09dbdb10829564cc6b921351ea3c7a5af6ed17ad7b4b4fa368690a",
    "classify-bn --h2 2 --n 12 --N 60 --threshold -1 --format text":
        "52280a2aea177785755eb0688518b86b7f1eb8ba837fb584d103bb1e999d0e10",
    "classify-bn --h2 2 --n 12 --N 60 --threshold -1 --format csv":
        "4d3a25a625e43f0586870959d9cb4eaa18dc6a3d18bf60ea95cfc98780241342",
    "classify-bn --h2 2 --n 12 --N 60 --threshold -1 --format json":
        "052a66e1b0486adabbfbc83f253150eea3a41b7944f8c1fba9c7e40576a8ea3c",
    "classify-bn --h2 4 --n 1 --N 4 --format text":
        "a1b8e3f5de347a07309684aadb140568df0317494a9a3d9924ee75743023df06",
    "classify-bn --h2 4 --n 1 --N 4 --format csv":
        "e8012b484b2731043e4635c878698a2561268a4fd91092e950372369e6e6ed79",
    "classify-bn --h2 4 --n 1 --N 4 --format json":
        "0289bc4c7bfdf7aeb48c1e1d8db2fe3e432cab5e25a92a7c4e14e2f98bec0c82",
    "classify-bn --h2 2 --n 0 --N 0 --format text":
        "af914fbd0b0218eb3b848ae75fbe02995c04288c8283dae323d1df907e995e58",
    "classify-bn --h2 2 --n 0 --N 0 --format csv":
        "7aeacec1662d979e455c56707d6807e99c1b5ddcf3c95c88ac62e0b731167c7a",
    "classify-bn --h2 2 --n 0 --N 0 --format json":
        "8f8f0fcd932ee1f5ae84638eb5436ec9119b3eefd43d3e3189f099345c8dca85",
    "classify-bn --h2 2 --n 0 --N 3 --format text":
        "37703efad1f692bd589933e38d8f4573c21187a7c5dfce1ce298726acaf2141d",
    "classify-bn --h2 2 --n 0 --N 3 --format csv":
        "7aeacec1662d979e455c56707d6807e99c1b5ddcf3c95c88ac62e0b731167c7a",
    "classify-bn --h2 2 --n 0 --N 3 --format json":
        "dcff0985e3e1b2ac04b0d2fc3787afaa884c84d879995f9d6b14ade17b8eaf6c",
    "scan --h2 2 --n-range 0..3 --N-range 0..12 --format csv --threshold 1 --out table":
        "5dd189c945b5e70555917454091f01fe04a4b1d4ca2fa3fa89e3c78c36ccd3b7",
    "scan --h2 2 --n-range 0..3 --N-range 0..12 --format csv --threshold 0 --out table":
        "b6d035c6489b53dd49f7802d3b1e01d4c9405f501b4fa398c23cf41813460503",
    "scan --h2 2 --n-range 0..3 --N-range 0..12 --format csv --threshold -1 --out table":
        "fe78189d9a4eb9269e9b4a1cf97dff01fb14af9ff8ddef766e7eec3ae8aa862d",
    "scan --h2 2 --n-range 0..3 --N-range 0..12 --format json --threshold 1 --out table":
        "d94498d0cb52e37951183d287cf4fe06998c23723db13a59e92ae7cae9874dcb",
    "scan --h2 2 --n-range 0..3 --N-range 0..12 --format json --threshold 0 --out table":
        "fc10cbfc8b6807a5da19435da92ebe8f27efd6c8e78db1d9ce459b07aa946abe",
    "scan --h2 2 --n-range 0..3 --N-range 0..12 --format json --threshold -1 --out table":
        "1a50396810bbe469c990e1ccd2eb66f907808fb1ca8fa0fc88a01528883ae424",
    "scan --h2 2 --n-range 5..8 --N-range 18..40 --format csv --threshold 1 --out table":
        "29974b01624973338e74e6d294c7323e251992910445db539f9a7f483623547d",
    "scan --h2 2 --n-range 5..8 --N-range 18..40 --format csv --threshold 0 --out table":
        "9082294971e8bf4ec134471707146a29c45abb5704a244ae86d7e3ab7b56bcab",
    "scan --h2 2 --n-range 5..8 --N-range 18..40 --format csv --threshold -1 --out table":
        "222b5dac134bc48d2071b87e5f634e8b0cc8069a9813de09fb9feab92ea78dff",
    "scan --h2 2 --n-range 5..8 --N-range 18..40 --format json --threshold 1 --out table":
        "5e27d87b7b270420b3aa31aa2fa4cb401fd711602818b8f1fce5c75098540df4",
    "scan --h2 2 --n-range 5..8 --N-range 18..40 --format json --threshold 0 --out table":
        "697c36bfa792578865bdc313d87491626487537fee0c394f40eaf6acd19de6a5",
    "scan --h2 2 --n-range 5..8 --N-range 18..40 --format json --threshold -1 --out table":
        "5eaec6544a5ebfe89750b5e388afd448f1b582ece8bc05996970dc353ba17efc",
    "scan --h2 4 --n-range 0..2 --N-range 0..9 --format csv --threshold 1 --out table":
        "ba95bfecde0046ba8651914df0593a5736df23abf460849a7247629ddca601f7",
    "scan --h2 4 --n-range 0..2 --N-range 0..9 --format csv --threshold 0 --out table":
        "df951ebd02b229f0ea98b02e42c8df9de100c11a3fc55d2ab32df6452d274ae8",
    "scan --h2 4 --n-range 0..2 --N-range 0..9 --format csv --threshold -1 --out table":
        "ee972f6cf5fef7b7037302a048a99b6498f905abf673569b3a51c1a4196f5534",
    "scan --h2 4 --n-range 0..2 --N-range 0..9 --format json --threshold 1 --out table":
        "d512fe733710143010fb805eaed872cf9c01fdde6e574cc8b5221dc65d19db9d",
    "scan --h2 4 --n-range 0..2 --N-range 0..9 --format json --threshold 0 --out table":
        "640f3ccee4f6aef6a9d2aac3e481eff40eddf138ca1b3098d2328fc060a88ee9",
    "scan --h2 4 --n-range 0..2 --N-range 0..9 --format json --threshold -1 --out table":
        "3cb6372782ced06677b17a898f01162ea2ee9a53d4952ff15cebcf4c9cc130f1",
    "scan --h2 2 --n-range 1..3 --N-range 0..12 --out table.csv":
        "c725d4fcda88891f1bacb8c75e8af3becf60059537379398a2d45c4879bc38f9",
    "scan --h2 2 --n-range 1..3 --N-range 0..12 --format json --out table.json":
        "2b0f2fb9d8737392bd4dc26940e571f508f117f427dee211e303b714f9a32115",
    "scan --h2 6 --n-range 9..12 --N-range 100..219 --threshold=1 --format csv --out heavy1.csv":
        "d0e9af844380190b6a1d8b7139b350f1cd7a4807e0b8493aa538ce34e536182a",
    "scan --h2 6 --n-range 9..12 --N-range 100..219 --threshold=1 --format json --out heavy1.json":
        "fa59179ad74cca9cc11be83074d038b0bf0147c07efa08834fc04d3e5c62c306",
    "scan --h2 6 --n-range 9..12 --N-range 100..219 --threshold=-1 --format csv --out heavy-1.csv":
        "4bc7c4aff14f9b937122a51784b61ec2bee4163784ba032071994659d91a9e41",
    "scan --h2 6 --n-range 9..12 --N-range 100..219 --threshold=-1 --format json --out heavy-1.json":
        "15eef3ca517ed5c59036fcc6f5125201aef060ccbb4c5044a9544e7e76049658",
    "classify-bn --h2 2 --n 40 --N 700 --format csv":
        "fe53883fb3840f29b7abd77019016bf113c6c50462a39f3511519fcbbcb731c9",
    "classify-bn --h2 6 --n 12 --N 150 --threshold=-1":
        "7a949d6039913e0f4b6cb176a9bc98c2242f619514a47c4c66373efb2e43f289",
    "classify-tf --h2 4 --deg 9 --c2 120 --m-max 20 --format csv":
        "11c0599eaa05999a08d74ac6179ac76a6c76e998ce53797e38d0fd93a74fdd57",
    "polygon --h2 2 --deg 3 --a 5 --m-max 3 --out p.svg":
        "3a9ae35d521586e8107e6bf6620c3921af817813b89600f244edac9ec469127e",
    "polygon --h2 4 --deg 2 --c2 10 --m-max 4 --threshold 0 --out p.svg":
        "cfc6e3e5ca26fff9fd28161f313a555252875fbcd2a7636fef744d28500a33c4",
    "polygon --h2 2 --deg 3 --a 9 --m-max 4 --out p.svg":
        "139123ac3dcdf61b7cea391beeddcb3422060200482d5bf83fb48fb6987c38f9",
    "polygon --h2 2 --deg 3 --a 9 --m-max 2 --out p.svg":
        "4a3ca4db2da8a2800d1327ccf08a49e63f2e29eb26c9a3681ce8e3249f4da3f8",
    "polygon --h2 2 --deg 0 --a -4 --m-max 0 --out p.svg":
        "9deea7af173b0f5355fc43bd678b77b285f99e6f7407262c127ada9baf8edbc8",
}


def _digest(code: int, out: str, written: bytes) -> str:
    h = hashlib.sha256(repr(code).encode("utf-8"))
    h.update(out.encode("utf-8"))
    h.update(written)
    return h.hexdigest()


def _run(argv, capsys, tmp_path, monkeypatch) -> str:
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(CONFIG_ENV, raising=False)
    code = main(argv.split())
    out = capsys.readouterr().out
    # the one file a polygon or scan case writes, in a directory of its own
    written = b"".join(f.read_bytes() for f in sorted(tmp_path.iterdir()))
    return _digest(code, out, written)


CASES = TF_CASES + BN_CASES + SCAN_CASES + LARGE_CASES + POLYGON_CASES


@pytest.mark.parametrize("argv", CASES)
def test_output_bytes_are_pinned(argv, capsys, tmp_path, monkeypatch):
    assert _run(argv, capsys, tmp_path, monkeypatch) == DIGESTS[argv]


def test_every_case_has_a_digest():
    assert sorted(DIGESTS) == sorted(CASES)
