"""Byte-for-byte CLI goldens: the sha256 of stdout, the exit code and stderr
of small commands in every output format, both as they run and with one check
made to fail. A digest changes only when the
printed bytes change, and such a change must be deliberate."""

import hashlib

import pytest

import invdeg.mldegree as mldegree
import invdeg.multidegree as multidegree
import invdeg.symbolic as symbolic
from invdeg.cli import main
from invdeg.mldegree import finite_difference_check
from invdeg.multidegree import multidegree_table

GOLDENS = [
    ("psi --n 1 --format json", "d0b097163d46c6110a47ee6d2e5a06a633d88aedc0fbbb28421faf22f036b626"),
    ("psi --n 1 --format csv", "9201539566d6af9c10b30fa1346a95485be3267e9cf97aa8dac1e1f5005cec07"),
    ("psi --n 1 --format latex", "eea77ebe56e7c8877a48e1a14fe538ace0ebb49357f0cd29c6fb4d4dca446568"),
    ("psi --n 5 --format json", "6a68125a0f731f331efb96e1b2417f992a5b0891b42372f49e0467b71115c504"),
    ("psi --n 5 --format csv", "78810d1b270f4c2750302bea7c2713ea049092c6f793e9a9e9fb760f1f6e9571"),
    ("psi --n 5 --format latex", "bc7e5f79f8bb9e362f91b84dbaf3cd9bd456eda8da984384266b456aaa6c1de2"),
    ("psi --n 150 --format json", "1795f83dc4dab32747965df2aefb54875b39fa8f1c04c6585aada64a4d57af2c"),
    ("psi --n 150 --format csv", "f13f20f72500cee3f060d2ac411b6942830ad76e5e44abde12171ec05c6fcd8f"),
    ("psi --n 150 --format latex", "5d1af123edc83a713409552e9f74f72173da2e3b67151f04368d629702e0f19b"),
    ("multidegree --n 1 --format json", "0d722a1013b58183a67c469175f6da64be51f4e47aba5756ced94c890241f48e"),
    ("multidegree --n 1 --format csv", "32b6c697b3e1cda919205b229d9dc5b5fdd03078607af2840cac315c8b061fd6"),
    ("multidegree --n 1 --format latex", "edf9755053f3805563d17f76e742e4858af1a636d41ea7a6093d617095f30b4b"),
    ("multidegree --n 4 --format json", "c558418cd52018887473e8e074900f87d1521a3c82ebafd4f835f149abbe5126"),
    ("multidegree --n 4 --format csv", "9360d54a4173eb950eed4c995cd0467c680eab6ca28e7f0ea98f910cba876fb1"),
    ("multidegree --n 4 --format latex", "bbb61e79d7e27f3c2023555a32fd30d2b86e31d09af7ce4fa65d959243f1ab57"),
    ("mldeg --n-max 4 --format json", "0958d31d408919a28b6de0baf6d66a4cdd09a9f6b9ff129f12134bd7e847896c"),
    ("mldeg --n-max 4 --format csv", "2467a75e0573b8c4cd1b0ccfb015e8d0badc29ceb469c10848e64896b0364928"),
    ("mldeg --n-max 4 --format latex", "b305dc7181eb0cbb8b039fde831c0d1646b09fb1ffcf12da59be3bd8261c7d03"),
    ("mldeg --d 1 --poly --format json", "fa52a8ba9b36414f07df56f34382dc9343f38d9131f755573715f04e3c60f72d"),
    ("mldeg --d 1 --poly --format csv", "bcf2f6eeb1e755c777fa861229cb8255c33e94c6174aac55f4bae553c1210a46"),
    ("mldeg --d 1 --poly --format latex", "a6b29c4a59ec183ee1822d7839dd53f5cc02ba2980f7947bfb66ad25f7782cd8"),
    ("mldeg --d 3 --poly --format json", "2b2fba526dcbebd76ee83a6c897db133db2371fc51f4e3eb5cbe20de9ebb3a8f"),
    ("mldeg --d 3 --poly --format csv", "1b1afe36027bc59103c72b838f11c353e828e82d82fe1928bff87cbaccfba74b"),
    ("mldeg --d 3 --poly --format latex", "be8a26cbc807cc39def21094e9bd2e60f3fa054affa003ef4afb8ec5374e8013"),
    # recorded from the rational Lagrange fit over per-n eliminations
    ("mldeg --d 30 --poly", "4cee55e0f4e3684a34e9f41584ab266bd8eeda0fb9311707001ef5a467e50bd7"),
    ("mldeg --d 4 --window 7 --format json", "52cce81be4b6c3bda89ab03f37e3796592d051255f8dff42d2e11a0381af4b70"),
    ("mldeg --d 4 --window 7 --format csv", "115688d21845182457ec155080a52588c117a7ca0233449b96de734e4bb280f6"),
    ("mldeg --d 4 --window 7 --format latex", "146e2d2d134b9c910fb2564c829ad66a6209726860ea66b549126b3a19e0f3ef"),
    ("verify --n 3 --format json", "9a59cec5dc67e6eb0834610d169260b31515ec232a58a8ecf9b36c6aae52e6d1"),
    ("verify --n 3 --format csv", "b8ed4ac05bb889b9a29c28cc08321c8c83bda8b8a57b05f8401c33f0d88296dd"),
    ("verify --n 3 --format latex", "eed9fe0ad55298be5f805d126e9b816fa5f40f120059a7dc33de5be3c1b01c65"),
    # the symbolic run of the certify benchmark workload: P[1,1] and P[1,2] by the S_n action
    ("verify --mode symbolic --n 7 --symbolic-cap 7 --format json", "ca6e547c2d9df9230d09f8a6b0e7cb0c5010d112124d223ad04ef1ec9d65a59c"),
    ("verify --mode symbolic --n 7 --symbolic-cap 7 --format csv", "1c37c827888f93a22e8ae5b5cba0ebd572a735779c1fa72a4ea047d73266ba42"),
    ("verify --mode symbolic --n 7 --symbolic-cap 7 --format latex", "061da7fedfd5da06bccd40a8aae5e05f5929bb49c95849a684047aa7bb7a7c4d"),
    ("verify --n 4 --mode numeric --trials 3 --seed 5 --format json", "40d15cec1d0777247a9bc26224b7250f690926f3afd253c530a2ad24ca366332"),
    ("verify --n 4 --mode numeric --trials 3 --seed 5 --format csv", "8a938fdcbc5d03937b4c2a2beab9daffe00677cef5259ae7e10d1b0c177c966c"),
    ("verify --n 4 --mode numeric --trials 3 --seed 5 --format latex", "71559acde45e86acc04b9b30cf0d8c5e19d31ed231a7be2a960e3167f4376d72"),
    # recorded with the witness ranks from two exact Bareiss eliminations per pair
    ("verify --mode numeric --n 12 --trials 5 --seed 3 --format json", "b780177948150d2ccd0bc4540b7ad72e962c348e8a7b9a4d6398fe1c5642a53e"),
    ("verify --mode numeric --n 12 --trials 5 --seed 3 --format csv", "969ff69c7b001ba102731f833cbcfb99a4c20d52ba6acc8353af58e179035475"),
    ("verify --mode numeric --n 12 --trials 5 --seed 3 --format latex", "48a433bcc3149b023d1ee996d4524eba3c6268f792a771d2a4ec6dfed0b093a2"),
]


@pytest.mark.parametrize("args, digest", GOLDENS, ids=[a for a, _ in GOLDENS])
def test_cli_output_golden(capsys, args, digest):
    code = main(args.split())
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


def _wrong_identity_coefficient(n):
    table = multidegree_table(n)
    coeffs = list(table.identity.coefficients)
    coeffs[2] = coeffs[2]._replace(lhs=coeffs[2].lhs + 1)
    identity = table.identity._replace(coefficients=tuple(coeffs))
    return table._replace(identity=identity)


def _nonzero_difference(d, window):
    report = finite_difference_check(d, window)
    return report._replace(differences=report.differences[:-1] + (1,))


# A failed check exits 2 and still prints the whole report. The CLI imports
# each engine function when its command runs, so the fake replaces it in the
# engine module.
FAILURE_FAKES = {
    "verify --n 2": (symbolic, "swap_symmetry_holds", lambda n: False),
    "mldeg --d 2": (mldegree, "finite_difference_check", _nonzero_difference),
    "multidegree --n 3": (multidegree, "multidegree_table", _wrong_identity_coefficient),
}

FAILURE_GOLDENS = [
    ("verify --n 2 --format json", "84dc75be199b575008179b387bc883170a009e782baba0750f322edbf882e2c6"),
    ("verify --n 2 --format csv", "8555092650d5db31997d530ff91c4258bd538328d639d11de3249e1d427ee26c"),
    ("verify --n 2 --format latex", "193d4fefcbb9cd9717ff5725560d2afdb9268d8ab1b998968ea07d5e29db7f56"),
    ("mldeg --d 2 --format json", "e0068434967b7006f4f644e67d601603f6582bafb0ec720ebf64bc1b35d5838b"),
    ("mldeg --d 2 --format csv", "4fe9c79adda31ec04000a445e9f7d55c9d8516f3ce6d1d34e9753d0d67604400"),
    ("mldeg --d 2 --format latex", "070cab424f4bf41a25ca717a36559ac6d65d27c5cafdf8b29cfb557700050542"),
    ("multidegree --n 3 --format json", "d7add07a259ab11a79180a713d451c2a3ad6ebab3a6864d611e0f8f65ba34953"),
    ("multidegree --n 3 --format csv", "ff0221d0f7877ef659aafec3a55af2141833a10788ac71986e2053059560014d"),
    ("multidegree --n 3 --format latex", "db6208f6515d738c92e36922ca009d7420cabd6a8afedf720e6f25fed19df171"),
]


@pytest.mark.parametrize("args, digest", FAILURE_GOLDENS, ids=[a for a, _ in FAILURE_GOLDENS])
def test_cli_failure_golden(capsys, monkeypatch, args, digest):
    module, name, fake = FAILURE_FAKES[args.rsplit(" --format", 1)[0]]
    monkeypatch.setattr(module, name, fake)
    code = main(args.split())
    captured = capsys.readouterr()
    assert (code, captured.err) == (2, "")
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
