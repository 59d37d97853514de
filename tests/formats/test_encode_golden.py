"""The encoder's bytes, pinned.

``GOLDEN`` holds the ``sha256`` of ``encode_xtc`` output over a matrix of
sizes, precisions, keyframe intervals and dynamics, recorded from the tree
*before* the encode kernels were rebuilt around period words (run this
file as a script against a tree to print them:
``PYTHONPATH=<tree>/src python tests/formats/test_encode_golden.py``).
Any rewrite of quantize / delta / zigzag / width scan / bit-pack must
reproduce every stream byte for byte; deflate and the stored-vs-deflated
rule are part of the bytes.

Sizes straddle the block geometry (8192 values per block): 2731 atoms is
8193 values -- two blocks with a one-value tail -- on a P-frame, 5462
atoms is 16386.  Inputs come from an integer hash, not an RNG stream or
libm, so the digests do not depend on the numpy generation installed.
"""

import hashlib
import zlib

import numpy as np
import pytest

from repro.formats import Trajectory, encode_xtc
from repro.formats.xtc import (
    _FLAG_STORED,
    _PAYLOAD_HEAD,
    _STORED_CRC,
    iter_frame_infos,
)

NFRAMES = 10
NATOMS = (1, 2, 7, 683, 2731, 5462)
PRECISIONS = (100.0, 12.5, 1000.0)
KEYFRAME_INTERVALS = (1, 8, 100)
DYNAMICS = ("thermal", "frozen", "kick")
SIGMA = 0.25  # Angstrom per frame, the thermal walk's step


def _uniform(shape, seed):
    """Uniforms in [0, 1) from splitmix64 over the element index."""
    n = int(np.prod(shape))
    x = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    x += np.uint64(seed)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return ((x >> np.uint64(11)).astype(np.float64) / float(1 << 53)).reshape(shape)


def _coords(natoms, dynamics):
    base = _uniform((natoms, 3), seed=natoms) * 60.0 - 30.0
    if dynamics == "frozen":  # every temporal delta zero: width-0 blocks
        return np.broadcast_to(base, (NFRAMES, natoms, 3)).astype(np.float32)
    # Sum of four uniforms, centred: near-normal steps without libm.
    steps = (
        _uniform((4, NFRAMES, natoms * 3), seed=7 * natoms + 1).sum(axis=0) - 2.0
    ) * (SIGMA * np.sqrt(3.0))
    if dynamics == "kick":
        # One 5-sigma step per frame in every *other* block, growing with
        # the block index: neighbouring blocks of one frame pick different
        # word widths.
        for frame in range(NFRAMES):
            for block, lo in enumerate(range(0, natoms * 3, 8192)):
                if block % 2 == 0:
                    at = lo + (frame * 131) % min(8192, natoms * 3 - lo)
                    steps[frame, at] += 5.0 * SIGMA * (1 + block)
    walk = steps.cumsum(axis=0).reshape(NFRAMES, natoms, 3)
    return (base + walk).astype(np.float32)


def _matrix():
    for natoms in NATOMS:
        for dynamics in DYNAMICS:
            coords = _coords(natoms, dynamics)
            for precision in PRECISIONS:
                for interval in KEYFRAME_INTERVALS:
                    case = f"{natoms}-{dynamics}-p{precision:g}-k{interval}"
                    yield case, Trajectory(coords), precision, interval
    # Header fields ride outside the kernels but inside the bytes.
    boxed = Trajectory(
        _coords(683, "thermal"),
        steps=range(5000, 5000 + 250 * NFRAMES, 250),
        times_ps=[0.5 * i + 12.25 for i in range(NFRAMES)],
        box=np.diag([61.5, 62.25, 90.0]),
    )
    for interval in (1, 8):
        yield f"683-boxed-p100-k{interval}", boxed, 100.0, interval


def _digest(traj, precision, interval):
    blob = encode_xtc(traj, precision=precision, keyframe_interval=interval)
    return hashlib.sha256(blob).hexdigest()


GOLDEN = {
    "1-thermal-p100-k1": "c60e43dab1deaae1b4c15eb331f809cdf3ec178133d2f5e9d3f0b1266e6b6279",
    "1-thermal-p100-k8": "049fddda140c1c59ef2543ad1c4fc2c0fcf6966633a052255ac089763f9668b2",
    "1-thermal-p100-k100": "c08f68a93f28749d3765358e8eb2f5596ecc35195a456479fcc9d2fcb6281b78",
    "1-thermal-p12.5-k1": "99bd794756324e6272e984628acad922f72260d250f5786c7ad4ebc9a12d743d",
    "1-thermal-p12.5-k8": "94c58a86a9ce2dd7ab3b3ed8f3b3995c962b30f69dcfd440cfe3908960380d1b",
    "1-thermal-p12.5-k100": "40313a2f60d31cb8566d5e33cd9acc21d239df6cac18429625f98f8d2d42ba9a",
    "1-thermal-p1000-k1": "3c0a9c9cd7f36c6c6417bb40d64496fd1d7eb082f51b267307888b6b1733f7d8",
    "1-thermal-p1000-k8": "9bbb192da5cd6980d31f1761bb074483e5c536f7bfb32f9f454dffec8fcf061b",
    "1-thermal-p1000-k100": "04d3189a7a649b0019fe0117080242d2fe61a9eb8245ac3ab9d7568364dc139e",
    "1-frozen-p100-k1": "8cebe7406fae77a138c815e296eb9ab771e61d57069cc9ebb2c8de2670d4515b",
    "1-frozen-p100-k8": "400da931394dbb299c272b55057ef05fc6064db0864381d49ab1f5a609a9a23e",
    "1-frozen-p100-k100": "c99b656ffc729df29adda91109da15dce53af714c7c3f5a020cee4796bda2ee0",
    "1-frozen-p12.5-k1": "0d877dd200a8d0ff6017e620d1a62a1c07ed9a581b5f6b1d4636c188679e5a87",
    "1-frozen-p12.5-k8": "a6a3d164035df36a4052e7ffb602c644aef26c58095a5bc2e445fcc2f4e543f8",
    "1-frozen-p12.5-k100": "b3d93cf4d5ff6367429a2abceb7ebc3d6376e36ccc8a18e736e3767f7d4557ea",
    "1-frozen-p1000-k1": "922e196c1a6b7e50141599188bb2ad3d9786a3237ab49b1ff819ac062030abf9",
    "1-frozen-p1000-k8": "d8f4123db4b9c67033aa9167e0709e6d154e4ebf550856c8953c46bfd1959190",
    "1-frozen-p1000-k100": "35921b8cce90bbe038fb2d5a0748eb4b7e659960f9569f8f1dd0f7f8a2e0ba71",
    "1-kick-p100-k1": "6aefec73c5d4b06e69c60519adb27e5249b42540245e9cc6ccadfde7ca1660bb",
    "1-kick-p100-k8": "9692bed6544c03ff919c531f714f1886e7801974ac56024acddae7dbda9eab68",
    "1-kick-p100-k100": "7f92b4df6becda540e8a680c4d6239e8e599606a34f7bd521227111ff208fdbe",
    "1-kick-p12.5-k1": "7e4e3263d67f965a3c1915d58356e29fdeeb47f2eaff3bfe91e26b3343c2fe8c",
    "1-kick-p12.5-k8": "02059271b9962ed68776b3d2758cf3a858f9340eb1f2203fc730269c71165c84",
    "1-kick-p12.5-k100": "0310df4507eee863bb866590a9d90c917d548f25f0d7d7f11d2f372e5d1f1a92",
    "1-kick-p1000-k1": "ec652b11e14556e19313ad250a59db14cfe79366b12af227db310afee06fda99",
    "1-kick-p1000-k8": "f9610f5808cb37ae7a74305cc74888720daa8655b159fd703aa5e340d61f5050",
    "1-kick-p1000-k100": "79830ba5f01e1ee86e39f6dafc062ee8bc7bceeea95d4cb145f986e640aba87f",
    "2-thermal-p100-k1": "a29263f3ee5dc004a9d276e6cb0aaa04adba5fc7229daeddcb3bb74ccca988f5",
    "2-thermal-p100-k8": "3b1024fdec8b22ffe1f4026f484e3845cf389f203acee1c8b41261f1f3a7af85",
    "2-thermal-p100-k100": "ab15b10d5efe9c8cc5aa370a3b8c0bb417ff78584dd2e0dd1e9555e700f80dd7",
    "2-thermal-p12.5-k1": "6a79ce511ca355c3d4942b6ae0ae893e973d862de6ccab94c355e8a92a94ab3e",
    "2-thermal-p12.5-k8": "930df0babcce75935824b7f69522b2a0e0d0dfa3cc4a21cf790b665d8c29ae59",
    "2-thermal-p12.5-k100": "a85c3cb445cafc66c79eba402976f2af0caff6d24015ccfea6ad10ddc69c8943",
    "2-thermal-p1000-k1": "82a89c5bc4537bc701972363a923db9df3ff88855411e7eedd4aa92639d4b8f6",
    "2-thermal-p1000-k8": "28f767bfff36ccb6b4eab33b564035b0218c620a4ac5aef88ae71d5d30d51f4d",
    "2-thermal-p1000-k100": "648f4ae2befe2e6cbf35e431f4e1cbe9627533a1eba1225c7db572e5eb9207f8",
    "2-frozen-p100-k1": "15a9e1eb71cf55489d577e8061336c186aad32b14f43068dbd5f0bd433833c1e",
    "2-frozen-p100-k8": "ae3e1af058be6ba1db64b277a81d7c21f158f34cde0b3331e2daf93732713177",
    "2-frozen-p100-k100": "1b86d1a33e13d89a1bd092e7a5e4eeb006a68527d41fcba03d9cb73a7f1dc677",
    "2-frozen-p12.5-k1": "403786bfc37f8a88e8d3a3f5e022d2aa8911333f023c916286831f754f7fec04",
    "2-frozen-p12.5-k8": "5d192ddb2cda7b05032f5e83dda952d6166fd655835a5a2b153b87d626c8d9ea",
    "2-frozen-p12.5-k100": "d9fea183697c3e9c8d7608361b46336ad25bfa85e3fe8e084193ffc9107bd2c1",
    "2-frozen-p1000-k1": "a1b9bd4d92b9e49e549a61ff7ae1a905310cbe1ceaeb1aa87b31433a51f1f06d",
    "2-frozen-p1000-k8": "ccffbb2962a8c59c16a00ba994058c3ba099eff9ff7b7bc9d0f1cc2bdd26a881",
    "2-frozen-p1000-k100": "69c5da71e0397fdf58decedf2d12ee945ed4cbdcf505445255c25b73b86d01b6",
    "2-kick-p100-k1": "c44849f39e2ff4e3447fc5de232c4795c7730be6c9dfa4e541eff74d122f5768",
    "2-kick-p100-k8": "a0f1c78eace639148bd24dd10fb6fca72e473aa38fe1de1c4a0aedb8185b1a83",
    "2-kick-p100-k100": "4b72a66775890c89a836859ea21a4caba849f4524e99466c73fc186efb2de7f0",
    "2-kick-p12.5-k1": "e57453ac65faa91f99ed61c968fed4fd3c27e2680c0c7442159e81d902ccb4bb",
    "2-kick-p12.5-k8": "6398c630a6f5e16dd8f69a0a39dec4404c98feebd1bd0efb22dc91c4f7bcedc0",
    "2-kick-p12.5-k100": "edf0231198d95b513ba82826f12150243d82c1721527b275c4400816d373e5e9",
    "2-kick-p1000-k1": "62de8635fdc98cc3cb16340d6b4cd365dacbce524ca315dab95fc9f38d7192fa",
    "2-kick-p1000-k8": "7a45a322bff0f82e359665d5fd7c68e6ea84ba09ee55ad54291ffc30ebc96266",
    "2-kick-p1000-k100": "4b9d11f047f4e83aed2dbad0584d2fba92d489582942719a3cfa5cccd1a33c89",
    "7-thermal-p100-k1": "77d6bb285697555a50cc14f4ed4cb42ccbf97789c029d62c516ddcfbd7f0fd84",
    "7-thermal-p100-k8": "787ecb48efbc4f058d9880969d04d3e010512ba86b84cb96909935519c24612e",
    "7-thermal-p100-k100": "6f4073093e9412fe8045c04a1785c0042fbddfce80a44efde899e0a613e80ec0",
    "7-thermal-p12.5-k1": "e002c8878a48484e419f40bd28e48008e57a1273ddfdb4e9dc9239b72548e146",
    "7-thermal-p12.5-k8": "abb1a0378aa557beef22f66678b5566ba1b19e2fd077cb8ffab7fb442cea6cc1",
    "7-thermal-p12.5-k100": "3ebf6a60a6e62c28838cffcde6edc73609ff6b6b964e335bdaeb204f5582ddf1",
    "7-thermal-p1000-k1": "b98347fa437ddb2b4f583ed9123b78ff8c2aec603e395ec1f0bccf178c6b7d55",
    "7-thermal-p1000-k8": "b57d23ebeab906ecaad46d57963c88055b6a81e1e07e5e135281d2a113a82aca",
    "7-thermal-p1000-k100": "1fb4f27ae4e6942b242780aacd65f01d51ecb8c237584a2862f50a1edd2caea0",
    "7-frozen-p100-k1": "8f00c7b510dd95fc0ed2bff85d947d5b433e19588cecef1362b83addffed4ac8",
    "7-frozen-p100-k8": "94a08392e5d6cf3b51c58ee70b60c2c9f235ff7cc3e45ac94b7dd92cd5520eb3",
    "7-frozen-p100-k100": "1cd1fc2f5c59a5f48cfbdae5e73afe1729e9917d1d5d408342a789f207e90d87",
    "7-frozen-p12.5-k1": "c1009391f82213d158d0ea0c90108ed1bdd4dabfe07a505e06060577b6ac58ca",
    "7-frozen-p12.5-k8": "ba2171b449c5f1cfcb28a019a5b16b71ca9c373299c0222923e3a6458d2a12f7",
    "7-frozen-p12.5-k100": "39ee7c8f31c70f543f73595ae444c32fbf4a155714f2aa99536975794a1137ce",
    "7-frozen-p1000-k1": "ac15844f6a5b89f15c13446f85bb747c7fb895d49c8001b24ad9954f4279a7c6",
    "7-frozen-p1000-k8": "0dfa258310de4b59fb6175493cc57b76ce437de5a5f61480d2e586c67eb4d01d",
    "7-frozen-p1000-k100": "8faf670766a0f18ccfbfc34ef4f2b51f6e62a1039b73b71ed95e86a2e83be886",
    "7-kick-p100-k1": "710ed20571dea0324eb0262e0e1adc6899b8438b07d34725f5dd152e7dcc3d85",
    "7-kick-p100-k8": "3b20161b7321a5716e7bc6d28bf7fce293036021a563243f5de5f3826e4d99e1",
    "7-kick-p100-k100": "15eba0a6739dde0e37f92b5a03e458e506a1c32dd6579525bdc8a9e599dae255",
    "7-kick-p12.5-k1": "c2e3f01cc1e95e6ddd2231e18c3919c06990e12e5cc8aad6a529a069c32d45c2",
    "7-kick-p12.5-k8": "ebdb0277c367db9e0965fe26f44c196e50f4eaacd4cbef49209b6e72380c22ca",
    "7-kick-p12.5-k100": "1a977bf7052680bac226655b20c5ee121e69e379e58030a7716be8797bc0b0ce",
    "7-kick-p1000-k1": "ded9223002f7f58ae43c165a1d3407974e6470b3b4a08a5e090fbf86a33da027",
    "7-kick-p1000-k8": "9a125efc444f8e642cabe82138e5ffa541b1d0d58fc533188e0fedd2e506b1e2",
    "7-kick-p1000-k100": "e78c91415a0a4918dd4c21c7b2f9a8bdfe592bf663317de5b09cea52950186c1",
    "683-thermal-p100-k1": "0c37ee9199232f935697b6c1e43dae6e461d7dd4e3407c9893289d15d0990d2e",
    "683-thermal-p100-k8": "9580d8d6a3f14bf757cff90c6ff24361eeb434bebdd29a67b60acaf5c4ec5fe8",
    "683-thermal-p100-k100": "5f40ff477d2530f9d97d89d3f65a4c6190c2d962685b8bb23dece0b09a297702",
    "683-thermal-p12.5-k1": "df15be313bca021cb8f7bfd6dab6e94a50ea1ded98f09e7cda211d4ae137c037",
    "683-thermal-p12.5-k8": "cb4b89d12780ef62e36c88d026fd582652dcf99856bd563c9f8351f5ba1b2fb6",
    "683-thermal-p12.5-k100": "4e6a6779ecda316ad4e6f1ebadfa59349c36cddbb57bc608d1fd568f28c85009",
    "683-thermal-p1000-k1": "10bbbc56d5c61d6e440838136e9e430f39836844491b8d08874bb888f990c3f0",
    "683-thermal-p1000-k8": "cbbc771afa6fa16aba8f3d3dd30d2663b5450764678005cf55188da89f7b20b1",
    "683-thermal-p1000-k100": "d452c76bb0456862db14c4a2c4c4f3991af11924d54c58cac8b0fc85dc126e74",
    "683-frozen-p100-k1": "1996e4559fc8d4b9d111536489d65f8ab8d28e5edae9ed0ba0b41d67df3bcd03",
    "683-frozen-p100-k8": "793ba53d04afe1494ee76d84122d1ae19779d4d400f51191e4d86c57c66b515d",
    "683-frozen-p100-k100": "a057dc20dc8e877f84da3a9501bb0aec67caf534592485d85284589229308b02",
    "683-frozen-p12.5-k1": "5e491bf2e419efafdad1c6cf0000a8cc9114f6435c13f12c4d179683935980b5",
    "683-frozen-p12.5-k8": "e8a08c158058c337f0cd9148d399dd92d58443219339b960d83493f053addc43",
    "683-frozen-p12.5-k100": "3a06d1116863ab1863c48233566314b39e9a374171e3a08c89569c70ffd059ad",
    "683-frozen-p1000-k1": "0ce35214f4dc49e0269993619f84907bafd1ba9462d0a25aaa1cf092d56af973",
    "683-frozen-p1000-k8": "d95ba3b5f23dd177a8f9b77145f18a7055a8c0e96d062727641d8f7f15ae0dc3",
    "683-frozen-p1000-k100": "f9c4297a39950189ef63be330074afdfc186aa77697eb299611063d01f3c829c",
    "683-kick-p100-k1": "792a6d742e31f1540e25db577e923703439ab43864c4ed1b34c6821c5b6220cc",
    "683-kick-p100-k8": "5967b4f4e5befb12b9919853d3f1b5e0568240035f0f3204921e082d1d831079",
    "683-kick-p100-k100": "f49658ac88b18a9493916330d12853e832fcf1509b91e268a970ba35dc083af4",
    "683-kick-p12.5-k1": "a45d2398168617f06df7d6b083b6c96d7093f5f006fe6740ce2706a6d0d9424a",
    "683-kick-p12.5-k8": "22439f91b6528dd211d8c0127e5a536f7532555585f312a5fc5535582713cbf2",
    "683-kick-p12.5-k100": "c1a2a26e04af1c2fb8fc002c23e13b187efe29b3f2894acb129aa8d1454b9856",
    "683-kick-p1000-k1": "3f2b231bc962e8c66dbaae378bd82fd29b0fd6cf6a53daed57715fcf43645354",
    "683-kick-p1000-k8": "bd19033eb37f9397950b8aa21546bc6ab33cc68890a87c8540f0aa1baf9192f5",
    "683-kick-p1000-k100": "fda5e975e08c12bfb494a127e1311dc399e332af03f3d137465b5f750079b216",
    "2731-thermal-p100-k1": "a29b88591c9e90fcbef7c962cbddf8e1f6820c359e745f7900de354c92c65713",
    "2731-thermal-p100-k8": "dab341d6fd601fb49b55cdd02b870d4f6eb3c98b855ce0f962e0f3e1d6572d59",
    "2731-thermal-p100-k100": "12c78fd5c4646d7052efbe9f1306e9ddd332fda392532d584fde55c67b376da0",
    "2731-thermal-p12.5-k1": "ff9a882a3b361f20daca8d1eb372e9f8d875a2b34974e02dc52cf0e4b8c59a72",
    "2731-thermal-p12.5-k8": "100a75f63f1230bb1ac947a4bb16d08f2db2631934032d5c70e53bb512f91052",
    "2731-thermal-p12.5-k100": "5ad5e49f9d2b73b33944b6be080f1dd4a79c4b38554505bd05ef3358813cbce9",
    "2731-thermal-p1000-k1": "9837fae432557a21c32699080a9952b26f5d73791f9c80fac34621de79076783",
    "2731-thermal-p1000-k8": "edf595ec25d6c103ec68cd3696ee299b2c29042c6df8816f74c6fc7066bb07ce",
    "2731-thermal-p1000-k100": "a6427f81313311813f8c979e35ee58319baf226b600a31138f5315244c3ea088",
    "2731-frozen-p100-k1": "9013a1789cdf422a51351f5f14c9be5ae6acd05645d9119e1c38890836456d99",
    "2731-frozen-p100-k8": "453fff409838696a9b3dcb397021255359c4dd6f7ff67f14547c9d52f83ec9df",
    "2731-frozen-p100-k100": "5852d003e6c756a47f540e3c32d3b75b7e8672f1119cece718e1bc4e8c5bae4b",
    "2731-frozen-p12.5-k1": "bcfe76bbacb52f5d0df424a09ef4179679a1093fd5da16f1c7de10928e19fbe5",
    "2731-frozen-p12.5-k8": "dd8f8699a0421a0441a75046e98b6546fb5e6e25d0415583b3f6c62bf6a7327c",
    "2731-frozen-p12.5-k100": "4e0545d6ddfa0a1794aa87a4de2c6972446009149d0f237b78a4f5de308e40e6",
    "2731-frozen-p1000-k1": "1f7a675c4ff9d7ec646db27d06c7be81348a9a57a4d4be95bc0426d6e6b1c1ce",
    "2731-frozen-p1000-k8": "cd1a15aad25b2b7f7854ea0bb0227061241291cdf8e293803febc1a63458890b",
    "2731-frozen-p1000-k100": "d85d3a114df750ee2261fcb609626977ceff242a81ffe61891f5a63c4c5586ed",
    "2731-kick-p100-k1": "a585ca342788d906cd7c987792364a1dcf56bbeb6ccc5b4fe347eba30a0612b2",
    "2731-kick-p100-k8": "a30061e6e3ea33ed475c63607d42e4c184168f58842546260ba1b9857a3855ac",
    "2731-kick-p100-k100": "1693d5f56788657e504d2c521442f8a3c546146de6e4502ae4442c36155064b3",
    "2731-kick-p12.5-k1": "73ada66fbf3a38edb63009b4201443bb91795afebd8a3d134ec4e5a0a3357fcd",
    "2731-kick-p12.5-k8": "20b68bb6e8786a4d5443152fe1c230e0ffd89ebedaeb7905b83608222b8d18e4",
    "2731-kick-p12.5-k100": "884a943b00b49be66055782b8fb9a8e546fe5379a99d5ec3d52a6e8d4a1df0f3",
    "2731-kick-p1000-k1": "a9b533bb1c2767fd71500d7513aaaac59baa722e78b70aace81707e7795c22b8",
    "2731-kick-p1000-k8": "60180f088ca6d6f0fe86573ab472d6ce229a94600e5b0f7fa33701f63ca06739",
    "2731-kick-p1000-k100": "337c476c0c8a9dd1e5319e1233b55f8ed2c4891a97c93955dd2613476ee2c5d9",
    "5462-thermal-p100-k1": "e80d234e401ec591969f7d3c91cdfed9bd5c39fbd68e74bd902c2a1cbfbdc9d3",
    "5462-thermal-p100-k8": "471b48d1e35c37b862f26aa560b3a12472ee403978ef36fb39cdb6413e358edc",
    "5462-thermal-p100-k100": "94d0f22e91983df51440a8d705ddd03d9fb62bde304f642feab8b6022855120d",
    "5462-thermal-p12.5-k1": "381f469f81fb6317d4f3205207354896988f72cd37e0f568859d5edf62fa06b1",
    "5462-thermal-p12.5-k8": "0d7270a726cab114ae70daf376dac42dd541ccea218a43bd4a0b1aead5877258",
    "5462-thermal-p12.5-k100": "96107c7dae0afe5be5b1c74fc78b03f25ece3b5cf1259d0512cc5bf632703541",
    "5462-thermal-p1000-k1": "ff955ac677a9aa496cbd9aa2da33fe1437a24f66682f8951765f09b55905ff1b",
    "5462-thermal-p1000-k8": "f34eea00fb2af5b9e7fed6e281cbba59c25bbe683b42590caf1ea8f1af1a669b",
    "5462-thermal-p1000-k100": "28856268c49ac0eb3b68158230b8b0363109eb260b54002b4fa95b0a35839d30",
    "5462-frozen-p100-k1": "4b9bf1f59a74b62fbb48effa43ef320d318fc5add7c74ac5a26ea902129b6020",
    "5462-frozen-p100-k8": "600dda1748f1c002bcc66b95956d0512223891ffb1a91c3d87579c78f5b4b2e5",
    "5462-frozen-p100-k100": "7da87eaebefb682d91218feea3862f391507a1207cb9b6e543ce9cc43a7e249b",
    "5462-frozen-p12.5-k1": "7c4c85f5de04146440d88f48661e107a211e28e8fd88490d726431e5eb199604",
    "5462-frozen-p12.5-k8": "96fb5f38136b3fdc1634075ca5f1104d5bb46fb0cd8df4224e5fbf1cf2f48c38",
    "5462-frozen-p12.5-k100": "17fc732331e2f57435be2cdf6479edf7920dcf490e38f27f4e2c3ea9bed8c111",
    "5462-frozen-p1000-k1": "e696c45fd4358c03905d383ccd648380925419bd60997499b804ea06b01de9c6",
    "5462-frozen-p1000-k8": "b0d5b1df3acc164bf36a05344447fc203c2dce631869064d25631e3c5e91e051",
    "5462-frozen-p1000-k100": "6c63a638d19349898c49ba2e8748c55dfa8ef6a7bd402e26695b45ffbbdd9e4b",
    "5462-kick-p100-k1": "6513829b59827b91e9d8bc61f7816b85771068b5b5bf2aa471d91cff1828ba50",
    "5462-kick-p100-k8": "5b29b50a39a33bfdc87f4c461d3e4eda6c7ccab00c3dfcd1778c49496c20e4f7",
    "5462-kick-p100-k100": "c26b5ebf0956d45108c01ec50796d3b2884b0966d6d3addf0016eae5a676e436",
    "5462-kick-p12.5-k1": "d80410869ae33b585fe688bc0171d13992e60d1b45474e5a6014cb3e5bb69948",
    "5462-kick-p12.5-k8": "72a226ecded482507b95f31ceba3dbdf7c8bd31a9becc92ed758a0d2b66a9d2a",
    "5462-kick-p12.5-k100": "081b581602b5aa4f65074d086b66f8ccea3dca348a83e0dc9dbc16aa875fdb4b",
    "5462-kick-p1000-k1": "af19ab6132cbc3d03077392400c90f8d3fdce00de0ed45411e0764478e9e78fa",
    "5462-kick-p1000-k8": "90f4068215cd3cd82c5770ace72f82166d0d75db1af81691b6741144b19a16a2",
    "5462-kick-p1000-k100": "6c2256aa30977fcfbdccfccb3295cd4f51f517f2884e3364764a40018fd397cf",
    "683-boxed-p100-k1": "51d74d63edef776efd5234c0e364a281e663e6849551681c015fbe7cd10e6319",
    "683-boxed-p100-k8": "a378ff7842d42db1a6e52a5a718e567a786ac698a3fce2dfa7656d26d3b9f2c7",
}


@pytest.fixture(scope="module")
def digests():
    return {case: _digest(*args) for case, *args in _matrix()}


def test_matrix_is_the_recorded_one(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("natoms", NATOMS)
def test_encoded_bytes_equal_the_parent(digests, natoms):
    moved = [
        case
        for case in digests
        if case.split("-")[0] == str(natoms) and digests[case] != GOLDEN[case]
    ]
    assert not moved, f"encode_xtc bytes changed for {moved}"


def test_matrix_reaches_zero_equal_and_mixed_full_blocks():
    """The matrix means nothing if the dynamics collapse to one width."""
    seen = set()
    for dynamics in DYNAMICS:
        blob = encode_xtc(Trajectory(_coords(5462, dynamics)))
        for info in list(iter_frame_infos(blob))[1:]:
            begin = info.offset + info.header_nbytes
            payload = blob[begin : begin + info.payload_nbytes]
            body = (
                payload[: -_STORED_CRC.size]
                if info.flags & _FLAG_STORED
                else zlib.decompress(payload)
            )
            nblocks, _ = _PAYLOAD_HEAD.unpack_from(body, 0)
            widths = body[_PAYLOAD_HEAD.size : _PAYLOAD_HEAD.size + nblocks]
            seen.add((dynamics, widths[0] != widths[1], max(widths)))
    assert {s for s in seen if s[0] == "frozen"} == {("frozen", False, 0)}
    assert any(d == "kick" and mixed for d, mixed, _ in seen)
    assert all(not mixed and w > 0 for d, mixed, w in seen if d == "thermal")


if __name__ == "__main__":  # print GOLDEN for the tree on the path
    print("GOLDEN = {")
    for _case, *_args in _matrix():
        print(f'    "{_case}": "{_digest(*_args)}",')
    print("}")
