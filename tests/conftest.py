import pytest

from biasaudit.data import Dataset


@pytest.fixture
def make_dataset():
    """Factory: build a Dataset from (group, class, response) triples."""

    def build(rows):
        return Dataset(
            [f"s{i:05d}" for i in range(len(rows))],
            [group for group, _, _ in rows],
            [{"bonafide": True, "attack": False}[cls] for _, cls, _ in rows],
            [float(resp) for _, _, resp in rows],
        )

    return build


@pytest.fixture
def write_csv(tmp_path):
    """Factory: write CSV text to a temp file and return its path."""

    counter = {"n": 0}

    def write(text, name=None):
        counter["n"] += 1
        path = tmp_path / (name or f"data{counter['n']}.csv")
        path.write_text(text, encoding="utf-8")
        return path

    return write
