from pathlib import Path

import numpy as np
import pytest

import snvtune as st
from snvtune import spectroscopy


@pytest.fixture(scope="session")
def config():
    return st.load_default_config()


@pytest.fixture(scope="session")
def device(config):
    return config.device


@pytest.fixture(scope="session")
def axial(config):
    return config.emitter("axial_hinge")


@pytest.fixture(scope="session")
def transversal(config):
    return config.emitter("transversal_hinge")


@pytest.fixture(scope="session")
def bulk(config):
    return config.emitter("bulk_reference")


@pytest.fixture
def rng():
    return np.random.default_rng(20240117)


@pytest.fixture
def fail_second_csv_block(monkeypatch):
    """CSV bodies written in blocks of three rows, and a ``MemoryError`` from
    the write that carries the second block of a ``.csv`` file."""
    monkeypatch.setattr(spectroscopy, "_CSV_BLOCK_ROWS", 3)
    real_open = Path.open

    class FailingFile:
        def __init__(self, fh):
            self.fh, self.rows = fh, 0

        def write(self, text):
            self.rows += text.count("\r\n")
            if self.rows > 1 + 3:  # past the column names and the first block
                raise MemoryError("second block of rows")
            return self.fh.write(text)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    def failing_open(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        return FailingFile(fh) if mode == "w" and path.suffix == ".csv" else fh

    monkeypatch.setattr(Path, "open", failing_open)
