"""The CLI's JSON output pinned byte for byte: sha256 of stdout for a few
requests that cover the pyramid classifier with the oracle, the osp shift
table (with its half-integer case), the marked base of a large Dynkin grading and the sl2-centralizer."""

import hashlib

import pytest

from goodgradings.cli import main

GOLDEN = {
    "classify gl 4 6": (
        ["classify", "gl", "4", "6", "--orbit", '{"p":[3,1],"q":[4,2]}',
         "--bound", "4"],
        "9e2a8239bf69dcb4144cc467c708b23c92017ed500d9d914a3dc10b6b4cb8b04"),
    "classify osp 8 4": (
        ["classify", "osp", "8", "4", "--orbit", '{"p":[3,3,1,1],"q":[2,2]}'],
        "e2872884e0a5047838800ba2933feea818a1951de647c1e97822724aa0c0abf8"),
    "classify osp 6 4": (
        ["classify", "osp", "6", "4", "--orbit", '{"p":[3,3],"q":[4]}'],
        "111c41cb7af4708bb90cb15df5b63841ff800a3c95f57e9c91d0cf3f3b6eafe4"),
    # the half case: the {-1, 1} box and the pair filter
    "classify osp 6 4 half": (
        ["classify", "osp", "6", "4", "--orbit", '{"p":[3,3],"q":[2,2]}',
         "--bound", "3"],
        "672fc6aff936e387374c73539e8370fea7eb08d8e63d0092a82637e61a43266f"),
    "diagram gl 10 10": (
        ["diagram", "gl", "10", "10",
         "--orbit", '{"p":[4,3,2,1],"q":[4,3,2,1]}'],
        "3e3d30dbd49124582d58c08e35f390ff70aa5e585245ec8ecbbbb61351b267bd"),
    "centralizer osp 6 4": (
        ["centralizer", "osp", "6", "4", "--orbit", '{"p":[3,3],"q":[4]}'],
        "102fbc56bbc4f65e3cdd016ea8efa25b6929706dae7a9b326e36f8c1d9bfa8b5"),
}


@pytest.mark.parametrize("argv, sha", GOLDEN.values(), ids=list(GOLDEN))
def test_cli_output_is_pinned(capsys, argv, sha):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == sha


def test_verify_half_integer_diagonal_is_pinned(capsys):
    """A half-integer H with integral degrees; e = E12 sits in degree 1,
    so the answer is "not good", exit code 1."""
    argv = ["verify", "gl", "2", "1", "--H", '["1/2","-1/2","1/2"]',
            "--e", "E12"]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "6f7ecb163a44b61f37c3264a74c6bfb4d8fe5cc2f19459f2e431038cc95a6832"
