"""The encoder's bytes, pinned.

``GOLDEN`` holds the ``sha256`` of ``encode_xtc`` output over a matrix of
sizes, precisions, keyframe intervals and dynamics (run this file as a
script against a tree to print them:
``PYTHONPATH=<tree>/src python tests/formats/test_encode_golden.py``).
They were first recorded from the tree *before* the encode kernels were
rebuilt around period words, and re-recorded once for the entropy stage
(Huffman-only deflate in place of level 6).  Every frame, header field
but the payload length, inflated body and decoded coordinate equals the
level-6 stream's; only frame 3 of ``683-kick-p100-k8`` and ``-k100``
flipped its stored flag (stored -> deflated).  Any rewrite of quantize /
delta / zigzag / width scan / bit-pack must reproduce every stream byte
for byte; deflate and the stored-vs-deflated rule are part of the bytes.

``MATRIX_BYTES`` caps the matrix's total size at the level-6 total, so an
entropy-stage change cannot trade ratio away silently: single cases may
grow (the 1-atom streams did, by up to 3.3 %), the total may not.

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


#: Σ ``len(encode_xtc(...))`` over the matrix with level-6 deflate.
MATRIX_BYTES = 8_221_643


def _encode(traj, precision, interval):
    return encode_xtc(traj, precision=precision, keyframe_interval=interval)


GOLDEN = {
    "1-thermal-p100-k1": "34cf6747748aa74eeee3c2195935c9c0cf7f9b8db950562e64d048ec2577a9f3",
    "1-thermal-p100-k8": "4598048bd648efe67fc82d9473388021782850ad3267cbb1fba1cd73da99f54e",
    "1-thermal-p100-k100": "ba918ac9891b9472f59d846386522659c4a3a91e27b03e69aca64aac267e97cc",
    "1-thermal-p12.5-k1": "1a5961777baee72bea209eaac90061ee9dd8fe3c6ae82f2128e1f4194f769825",
    "1-thermal-p12.5-k8": "4c60e8d03181281ad87437c31e3b1dee539966112f5ed6e10653f4d170bab6ef",
    "1-thermal-p12.5-k100": "4807eec28f8148354ced659e595dfda5205074cb0ca4fe7c17d23c6039c63ea1",
    "1-thermal-p1000-k1": "2b3d7e0493c4a7fb1fba28e239d177770b84aa728ad6818499bf82eea2de026a",
    "1-thermal-p1000-k8": "f5ab481a9913c4e786a00c52e7fcf8d6b429f308f19e512a8149a77731a33ba6",
    "1-thermal-p1000-k100": "cb191c2c0747acc89b761c9306961b2846941e8ddc1535fe883f0fefade1ee6c",
    "1-frozen-p100-k1": "22e56a5864cb92bbcbc66a79542e22546bb9267da399940d71720b4c068d3f63",
    "1-frozen-p100-k8": "07ae41acc50d2019f4ac54cfaa34344061f0d48d2744712c3c4ca9e5bcfb2fe9",
    "1-frozen-p100-k100": "62c33487d5c297e21cc0aedc8507707cd1f8297fe8cd28d4ebad8ec9514d207b",
    "1-frozen-p12.5-k1": "72ce1bfc9d2f36b6daf58a27eb2c5cb229a15cface2c40e49fc3798413b26089",
    "1-frozen-p12.5-k8": "9fc562005923f07df01f4b6928e1f3f03b5f614c29427783b6b38e45e78b55b4",
    "1-frozen-p12.5-k100": "7fa96c99fc5ee5568891882611d545603f994f825249aaa0dbf72f0e0f7500fc",
    "1-frozen-p1000-k1": "ecf3cb757474028a64709949a31efd50c026aebb243253f3506c6d68cbe1ba19",
    "1-frozen-p1000-k8": "f9f2342a0b7a46d8aaee925feb0d5529f0f8c925a927965d0e7197b311418482",
    "1-frozen-p1000-k100": "6a6df9b9bc6fa9ab41fe781b6fbcc10e81852c75039b374254af822cb27d8e55",
    "1-kick-p100-k1": "56f5341edd3e7ecf69222f1a9d44ab1836ad32dac343ed13ecd219c5d6ebd1f4",
    "1-kick-p100-k8": "0dde56969a9d754851a5238a2cea22c88ef336afea784b3b4ada0584ee371d7b",
    "1-kick-p100-k100": "0e6a752a1889ea83baee0e93363df34dd937b6e72f8440a5b7015ec87253a1bb",
    "1-kick-p12.5-k1": "bad839cfcb5127ec6f2dfe75f02c84c3a3fb861354e0b4e85a0af76187490caf",
    "1-kick-p12.5-k8": "a008f49a51ba847e9858aac214a8d0d84bf35ff5975c9bd4bcd74e7ddfee83af",
    "1-kick-p12.5-k100": "c959b813a8c89e538b0271d25f457c69c23c87cae7f0b2e75f304f6d505e1262",
    "1-kick-p1000-k1": "1e4f5298a348a436588588d8892e3a514806115dd8edb8cacdeaaec34a6ded65",
    "1-kick-p1000-k8": "a07243bd8aaf0ec880f35f1c410cd137fe9f710368a060bab6ea9d8ee247feec",
    "1-kick-p1000-k100": "77fa5abaab69713cc69243a882d3de51659f11a02e76bd6070df3104fd2cd909",
    "2-thermal-p100-k1": "cc06d7bf83a39503b22db3839087297fd38c91d9fb3d785179f017cb3afff450",
    "2-thermal-p100-k8": "0c0ce0f6e676c35216efeb3a3793fd3adf1546eac233097f617b6143afd1cb03",
    "2-thermal-p100-k100": "732d2d2d5710b793716b5cff086644ff74211b9a7d85b7dc2fd7efa879a33bd0",
    "2-thermal-p12.5-k1": "af77a62fe2276d84563cee82cb6d72cb0bcadf7f23ce638cc232c8346539cad0",
    "2-thermal-p12.5-k8": "719f502783f264e5b657bd6e72a439d9c94cef823401ff66af4b0c7b1a8e08b6",
    "2-thermal-p12.5-k100": "fe347dc34d96e9d811891e04f2723aa059f96d9ac721ca2dcf65dc227bc5be9b",
    "2-thermal-p1000-k1": "ea0c5dccc91a5bfcb011e838ce3615931c06f70d0493ee6aaf98f24c090475b7",
    "2-thermal-p1000-k8": "d2720acf55d0b25effdac0c1b0c2d4a111b77a486da2355ebb0cd40a27a1e4d7",
    "2-thermal-p1000-k100": "61583b411083e144a13319e11bf7da6779f5b2e507ddd88b5df0299ca38683b3",
    "2-frozen-p100-k1": "6960cd7d2803d49a80d861340bd7f6defc187686d904936c7f436452a1b4ee85",
    "2-frozen-p100-k8": "d07291e7cd7d983b94a210577ec3188e6efea7781faf82dcec90b3719ac9b6d4",
    "2-frozen-p100-k100": "68a0aeeb4fe8f3bdd31b59b7f28e0f9798f099d4e857dc34042bbc408e80b69b",
    "2-frozen-p12.5-k1": "cb2db96b75bf1384422d79ef8e097ad09ee687c2ec74e620e1723748f1de78fa",
    "2-frozen-p12.5-k8": "c67c67a468bac08c8a73d278e04ad014e08439eb9b6680cf7adb6e6aed27ee43",
    "2-frozen-p12.5-k100": "b8061a74a93a9aa7b4911c699af28f8108bfb5e8542c429d14438da26b92c4b9",
    "2-frozen-p1000-k1": "79e993898919a8476887e5f4a13edb6561188b7533ef91cd87a44b816e471495",
    "2-frozen-p1000-k8": "9ad0e66c46cef0939da5a36b0b1a8903f35301e3d63b8d7befe9a3ba559028db",
    "2-frozen-p1000-k100": "1e593e9398a1fe92396a64cc0144af2b9230b5c4ea9d1912ecba2c6e47218d42",
    "2-kick-p100-k1": "8b00abd0382584bf361003baf9947300915321d2a4fe995710fe56703f0f3fb6",
    "2-kick-p100-k8": "380d41bc96701fbb8c64d4370a42b7b6f19b36e0618f7d6542cf9b11b5d533af",
    "2-kick-p100-k100": "151a8dea354634d0b3b89066bce8ab8e4e50b7bd380e6b6197568f9ef28eafb5",
    "2-kick-p12.5-k1": "5784fba7e6b190df03334c241f71438248f7189afba53d3756bb4eac40980e45",
    "2-kick-p12.5-k8": "2caa712dd50af9a4a33128e647092db77eacf9bf88caa0a2ed4c7ba43f56c482",
    "2-kick-p12.5-k100": "3fa2e577509fa93524585aa7515a4885932475d0bdece12f92461d7cf8efa89f",
    "2-kick-p1000-k1": "500cbe3ad987b4dd75b94603e927594a51a33d71614c8f1bb726bafe505367af",
    "2-kick-p1000-k8": "e5cc1cd7aa8aa0fe018f21c490ac4fa5ae38980a3dda51a1a32029e54097e1ac",
    "2-kick-p1000-k100": "798fdd2ce8fe48319f4448cc7a433d12c39cca32da057991be893729a90e4cf2",
    "7-thermal-p100-k1": "d2d50115f5d6a9150164b590b1cf62baf6145768471f8b2e35a0048bb019ec73",
    "7-thermal-p100-k8": "7309717e94e71be20d01c3fdd777ee9114c1e56cabe57c2cb7fbb984327a2e2c",
    "7-thermal-p100-k100": "ca800e38e5ce2b78ab43da833095c36312dfb97029b4c7ec1187ad30607eadf1",
    "7-thermal-p12.5-k1": "7351c7ff50f43b691ad1f9585270c68ffc606864402526dd740d412627911822",
    "7-thermal-p12.5-k8": "04fba2d2001cdc5f0169187d86edd2023f730a871dca3d169c037cf7c242dbf4",
    "7-thermal-p12.5-k100": "901a9ee8f630a79135b43ad85c17695dfb92a6d9612d6b3fbce9792f565c2379",
    "7-thermal-p1000-k1": "a02b4db95d518d9c43d5819caf7c62097d803fa476d2c83aed5271a53b25007a",
    "7-thermal-p1000-k8": "84b1bcea346a41f157aeceacb2c0aad78280059cc5c9001bc17eef48b6ab3fde",
    "7-thermal-p1000-k100": "94a9e16051af6f300fde85181150b68885832fcd9db4419046e86650811a0064",
    "7-frozen-p100-k1": "c60c7678324be6ce83fd7a7c26c3659ed7066c210aab61bf5485925ee40c492f",
    "7-frozen-p100-k8": "9e513190954d9769fae51cc98b2c6957ab9c9857b3cb14b20b6057c963a7f1e2",
    "7-frozen-p100-k100": "74ab1de57ddd515038b50c0b64905d9635416f5fc4da8aa14275235955124224",
    "7-frozen-p12.5-k1": "beb2b145e7512d79a4ccc6847148a4174288be1eae4552a68e5257def6ed8f1a",
    "7-frozen-p12.5-k8": "c3a5cb284da471d23090780c775da12a3856a416f3c3d58102f39652dfb720c7",
    "7-frozen-p12.5-k100": "ed9e7f7d7d3ad1b6d5ece0a082d2611dad942019b3de5f73e70f2e35d79d8272",
    "7-frozen-p1000-k1": "ed9b2313ecdbee4c8e0e7601a9d064e2dd9e0f960d0700f520b634a00a63ee54",
    "7-frozen-p1000-k8": "16fbb7c5adfbfb9f637b607556004fe0310b1da9fec5031d7155b5706d7b7630",
    "7-frozen-p1000-k100": "af7247b9772ac7e8e58a8540b6cd05f63549f81b8c9e9bf72b16cd4070e335fe",
    "7-kick-p100-k1": "bb7c51ecfd2479c064ebfde1f247f3512ce2cf204bb604d1b27be86ec31c9cd9",
    "7-kick-p100-k8": "d6eb0134aea6871b298c34e3e9b64be314d69b728b342c8544141e498a0f587f",
    "7-kick-p100-k100": "ebf6a8b45842a53f15d95df1e19c90e9e1bfd316a7702e43e7523708efaa17e0",
    "7-kick-p12.5-k1": "e9c326bc18c903886b89b1e2f695afb471d5048e83ca7c12305c6b14541258ac",
    "7-kick-p12.5-k8": "0930b0e44d778b8f4b7d4a18f285db3e25e92424fe6d3c6f9d230a7cde030f82",
    "7-kick-p12.5-k100": "0d77276c0b803941c299d8d507780b94a7613f2f686eb4b68be7192d22b0590d",
    "7-kick-p1000-k1": "11e0aa2faa81b627a5d68d0693f993fbb1d0b781565c2c941bf57372c715c5b5",
    "7-kick-p1000-k8": "2ae469062d3055ea5ffe4fd8b54af34c198c7912e11eb7e7dd2742f0ae22c657",
    "7-kick-p1000-k100": "f97efcfbf2e1ee7afb4a5c134b6edb934f8f6d59c928cbca70dcbfc99567dc65",
    "683-thermal-p100-k1": "107ef006986a0de9a2f48a218b9f32bc77ddbc3466be7ad595a2f0fcf79486ae",
    "683-thermal-p100-k8": "420089cb72f048a791a24ef0bffc5be71a4bb3d031e3c3342fe5094d05f1013b",
    "683-thermal-p100-k100": "97cc0387942b67c26cf2c4a258a3d00a8550753f913d252257c0bdeee4eaca9d",
    "683-thermal-p12.5-k1": "847781ac2d263a0d442bd336a1298a4deb28c703175f1e812b7b7db035bb4c9d",
    "683-thermal-p12.5-k8": "ba50ef83c647ea12532fe94812b8e2ada0371c803fca2d23194c71a9b31d2fa1",
    "683-thermal-p12.5-k100": "b82b08868b1df7452ab9d66639f31332c74a6c4db68fce50d1128133f3cf591a",
    "683-thermal-p1000-k1": "2f517a7f00eea435a0a69d6e2db97ef1a7689cc5ebe07e00e35bb9233382175f",
    "683-thermal-p1000-k8": "2ac2990ed573878c892e5956f1db6985bdcfd85dcbf5bf1c196c8e956da3b98f",
    "683-thermal-p1000-k100": "972801b592eb8c4b23f52d7984fa3ae23733b2b682c3e539204fe426b2a4dd89",
    "683-frozen-p100-k1": "f343ede231dc403a10230af8be80492c74d6812cf11a4ba4c6e0de5410159f7e",
    "683-frozen-p100-k8": "544cc6e19b3fbc31a44527d8e1c5a5cdd8a09470ecbfcdb8b87a9f32751c0434",
    "683-frozen-p100-k100": "cc69db3368cb86fb8909d683b200dd7eda780743e6a29d50470052ed91e51561",
    "683-frozen-p12.5-k1": "eea3591c6bf9209cdb925e052b1a3a4f9145a22840c0f0f7f3dc6026c12b608b",
    "683-frozen-p12.5-k8": "8bc804507eecffb9a7be29e158a02a602c2eb72c2e3f2d501f7fe2f3471a260c",
    "683-frozen-p12.5-k100": "cf992124cd541a1141e062ae9af5ad9b5c4bb5379a382ffd611f2502417c7fa6",
    "683-frozen-p1000-k1": "7f44e94189417da5f52ef48cac293134fcfbea56a3c47f8d70b3ca96756aec45",
    "683-frozen-p1000-k8": "68b2ef04d42a0f9d30b6ba0bf74734042d7b4ad9a28ff61ada2209b877521f47",
    "683-frozen-p1000-k100": "a9714f9813289dd72831cf5c9986367444fd7dd21de62a7d317bc6e8389c1a6f",
    "683-kick-p100-k1": "7659a4820a9a70880087d31af39f46d3f749557138f92a63298c16a442ba85d2",
    "683-kick-p100-k8": "b904e4899e83786efa650ec2c11eb66de733a4492bfe8d9ba214ffd327a96030",
    "683-kick-p100-k100": "ae8c9c6fb4a16826dce5d9e88c527a8b0b6f4f2c49d37891223c004bbd8902f4",
    "683-kick-p12.5-k1": "e4d7a8eefb946f88567d3669608e0227a193d54d53661911f46178c1a197b24a",
    "683-kick-p12.5-k8": "3998acda62916a871bdba366ce941ba9cc41d1877d69f0832259515e9622af28",
    "683-kick-p12.5-k100": "69f05524136ccdbbfb798cffe68c0901919c34627335f63a2fa1fb63894576b5",
    "683-kick-p1000-k1": "af43ed60d31cf1b3febbb5053f508234a79318157d945a44ec8f6f213eb7d290",
    "683-kick-p1000-k8": "a90329b6aff5fa977e195d3350a475ac2a1fcd1b482122b8d8c9e3b8842186e7",
    "683-kick-p1000-k100": "fd3bc7a6f183ce76438dec8b387696de923e1ec2cd92446f71d1185fe31fbd21",
    "2731-thermal-p100-k1": "22dcc7785e62919c44f9f0df7170548e77109fa494d549d39014bd5e8c910256",
    "2731-thermal-p100-k8": "661b41ce85e5ec2431e5e419da9feeb91cb4503da5966c781758bfc09a702bc0",
    "2731-thermal-p100-k100": "d6f021ac5ee4feeec637fe3407ece3cfff5882b7342d0084e1fd88b887681d58",
    "2731-thermal-p12.5-k1": "c298ecd984fd6fa7bb3547bb94f9d1f192fbf5d0c8bf5c214f0c921ec5530830",
    "2731-thermal-p12.5-k8": "5849abcdd80c6299722774cb6d12cbbce2e6f8ff9b69e1ccd2f44217ac7d9cf5",
    "2731-thermal-p12.5-k100": "fea5866bf13205316671033c864c7c966b1cf694235c2cde89b0a57b2cce3210",
    "2731-thermal-p1000-k1": "63094a116481e0236cdafadb4f34a773886ee93d9c84f2e84aac86578f3721b0",
    "2731-thermal-p1000-k8": "bbb193fc120e5706cb4631a39c7e4ce880880cab5e21ca929767477a3a4275c3",
    "2731-thermal-p1000-k100": "d702a859f85e7b08c25fc559a54c07b53dfce07b5f8b0ee060aa79a222c5154c",
    "2731-frozen-p100-k1": "d1a823c1380ede97b7018dbf16ebe07b741606d480565cf14b0193f0aaeedd3b",
    "2731-frozen-p100-k8": "ba642c9bec5a86f5fb6f832e11838c115043829e52f804b317105ce017c30a91",
    "2731-frozen-p100-k100": "c4dcfb7dd2d8ae27954989c710fd945567de631c326c1daa50c25b03d50c01ee",
    "2731-frozen-p12.5-k1": "ac7b34efa33a97b7e3bf32c6f3c2907b740e5554f7ca927380b7d9330d7f2c48",
    "2731-frozen-p12.5-k8": "c4a24ecccdbae1e2cb7058c5d0c12197a808abfbe27f1a4ce09a78f9a5a5e311",
    "2731-frozen-p12.5-k100": "f288bff9409293564ce6e94b0dc1ec57c335cd311c13753c06f87387618bac6c",
    "2731-frozen-p1000-k1": "0f2a2b2abbe68afc37141598b0ce5ee94da46855b327915d86acd1cae780c266",
    "2731-frozen-p1000-k8": "f0bf4a98ea6a8d570aa893a268b55644c1a1520af836243085866125a72ad6e1",
    "2731-frozen-p1000-k100": "76a8adb694d693ca9ea86732eb745c7e3fbf0fed0a08307b6a35132f99a84a7f",
    "2731-kick-p100-k1": "f2ec91ceb9fc1afd421f3dc7e4875e5bee2c4f4d6c8dd8f8a052410bad3dbcad",
    "2731-kick-p100-k8": "9a44ee988e64530668f14b6e93a9f4e504abea94a0017a5a4b485eab48f6c738",
    "2731-kick-p100-k100": "faa679d75f455fafac5325b50411f187dbaa857ce355d58d23624e7ca3aa442c",
    "2731-kick-p12.5-k1": "719540cb5defd63a80f021d1c5bf650c4f0df25a1007b1c686d2ad387d25a503",
    "2731-kick-p12.5-k8": "3e7ac4b98db26b914935616e64c61611fe872832143045b758030a2da052100e",
    "2731-kick-p12.5-k100": "7d336ca49b55449e1a618df2e1aadc9300a46cd3b27d9d54a85fa8e1c404e197",
    "2731-kick-p1000-k1": "5c0767d2b78c7c8556d8f70217275dec9bb6be7055659b970de87244c5ddfe2e",
    "2731-kick-p1000-k8": "d41cc7bd31dc78228ff9301c7bee4c4b05415aa601815d7869fe4b1d66b1cd88",
    "2731-kick-p1000-k100": "8218894b8c7332a0d4977a0ccf195f9555a9b6255c9e5a0a3cf04211e8ad2024",
    "5462-thermal-p100-k1": "3c0a13fbfd44245ac1443f34e02c7caed8e7fe860ec38c1a42ea767ea36200a0",
    "5462-thermal-p100-k8": "7000e12af9614fd604dffbc874f28da957135f7dcad01e44a2ebff89affa72d3",
    "5462-thermal-p100-k100": "0827ff015ad16c8cec7286c2222b4ee3d07e6a1716786fbd02db2bb6798a13f4",
    "5462-thermal-p12.5-k1": "057468f677d8e2dd228b67d8d4353ac574678ba76d50d99ac56a5b02b324caad",
    "5462-thermal-p12.5-k8": "02dbbe29779372554fe67f0760fbb3adf0c24123868f960dea38d598c451a23c",
    "5462-thermal-p12.5-k100": "ca49899521e546e4745a20a23a7e9c671dc86ea1a889b73f4327486f95a16557",
    "5462-thermal-p1000-k1": "4a98b317d618056288bf88462aa82a44da4c95721e50762f9c8e0d374b8eec21",
    "5462-thermal-p1000-k8": "01000af551ef689f457e2f43c0bedfa2ea33797ed489703ff2fd35ec3a8d9e59",
    "5462-thermal-p1000-k100": "2150c4354203c36754248daeb4f8ceb2883536b344cf9a6402322ef4adb7f926",
    "5462-frozen-p100-k1": "4bb788491de0945b9440d658591f2209c8cb6563227e4e6c3a9f6240633b0486",
    "5462-frozen-p100-k8": "43785ebff651c9b609afe9e7ead95e157cd9e0ef87a203ffa63a95915fe88f2b",
    "5462-frozen-p100-k100": "e9596410053ea15f9c057113ab8eff5c3d5f61240f92367dec4445bcafce792d",
    "5462-frozen-p12.5-k1": "27fffc821fc541df8d8af5b11802405eee02d12f263e2837c7ef1cb622b70a8d",
    "5462-frozen-p12.5-k8": "98dcdc591489ba1e373573502a085f4e2dfe340fd4491e2beda55c81c010eaa3",
    "5462-frozen-p12.5-k100": "dabc31c790af7979dc2826b4dcb08367866a5a2914dce8ecb1620f79f11c5870",
    "5462-frozen-p1000-k1": "306837294f5ed8232492bef1a36ddb47c3db1bebbaf5507289a5277b5071c5a5",
    "5462-frozen-p1000-k8": "316478773a33a83e3363b156a89921ed24b6659ea44ae5149c35e9dbbf672084",
    "5462-frozen-p1000-k100": "690de0cfe59f796a08e991b02f80fe53145ceb664785adc8e75317a62beeead8",
    "5462-kick-p100-k1": "4faa89ed7ce48f1aa36a44a3315065d0ae444f1195a41aa95a200a87166eebe5",
    "5462-kick-p100-k8": "d84c6cb897d02ac67cf3997097ebb2a9ea23afe667cd462fb4f3065ef03b260f",
    "5462-kick-p100-k100": "97b8e34ca4021eb414900049c59e59b635140eab4e9780499fcc06cc87a7b29c",
    "5462-kick-p12.5-k1": "70b76f893afa971c419a739aa280f5c70553718d0433fdb10cb45295363cb115",
    "5462-kick-p12.5-k8": "19ea86e17e82c3f55867e60eea7980c01133b0f05561407d41d5b8b8e254b89f",
    "5462-kick-p12.5-k100": "2c53770b8fb84b483fa73d6842cf10217fb34c007f40e2bcbbc567de4ef3cbc4",
    "5462-kick-p1000-k1": "558194471cf1d0967f0b8ea4fea346811bcf7c22cd95863c8dc5a02681f3589c",
    "5462-kick-p1000-k8": "30d6f573de8cd214c9604ca4e6929c5150584325a00681b5ca7203be78e2046a",
    "5462-kick-p1000-k100": "8ceff4cba934bb7c71e451d0406e0c0f3d9ef72c7a1a6cdbc6eb5b4c7c0a6202",
    "683-boxed-p100-k1": "3cfc344eff23e5820cbdf97626eb1f7fe8998c75f7c89d31ece0f274219d61e7",
    "683-boxed-p100-k8": "903c4f953d74ad8c6ff6a9c8d9239e67077940de7f380e33b88b12a6d39e2957",
}


@pytest.fixture(scope="module")
def blobs():
    return {case: _encode(*args) for case, *args in _matrix()}


@pytest.fixture(scope="module")
def digests(blobs):
    return {case: hashlib.sha256(blob).hexdigest() for case, blob in blobs.items()}


def test_matrix_is_the_recorded_one(digests):
    assert sorted(digests) == sorted(GOLDEN)


def test_matrix_bytes_do_not_grow(blobs):
    total = sum(len(blob) for blob in blobs.values())
    assert total <= MATRIX_BYTES, f"matrix is {total} B, level 6 was {MATRIX_BYTES}"


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
        print(f'    "{_case}": "{hashlib.sha256(_encode(*_args)).hexdigest()}",')
    print("}")
