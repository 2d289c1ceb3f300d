"""Every invalid document in tests/data/bad_networks.json gets its pinned error.

The corpus and the way it was built are described in make_bad_networks.py.
"""

import json

import pytest

from qnetcap import NetworkFormatError, cli, parse_network

from conftest import DATA_DIR

CORPUS = json.loads((DATA_DIR / "bad_networks.json").read_text(encoding="utf-8"))


def test_corpus_names_are_unique():
    names = [entry["name"] for entry in CORPUS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("entry", CORPUS, ids=[entry["name"] for entry in CORPUS])
def test_bad_document_gets_its_pinned_error(entry, tmp_path, capsys):
    with pytest.raises(NetworkFormatError) as err:
        parse_network(entry["document"])
    assert type(err.value) is NetworkFormatError
    assert str(err.value) == entry["message"]

    path = tmp_path / "bad.json"
    path.write_text(entry["document"], encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 1
    out, err_text = capsys.readouterr()
    assert out == ""
    assert err_text == f"error: {entry['message']} in network file {str(path)!r}\n"
