import pytest

from permdesign.corpus import bundled_corpus, write_corpus
from permdesign.geometry import build_AG, build_PG, build_symplectic_subdesign
from permdesign.group import GroupWithChain
from permdesign.perm import Permutation


def perm(text, degree):
    return Permutation.from_cycles(text, degree)


def group(degree, *cycle_strings):
    return GroupWithChain(tuple(perm(s, degree) for s in cycle_strings))


@pytest.fixture
def chain_builds(monkeypatch):
    """The arguments of every stabilizer-chain build made from here on."""
    from permdesign import group as chains
    calls = []
    build = chains._build_chain

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)
    monkeypatch.setattr(chains, "_build_chain", counting)
    return calls


@pytest.fixture(scope="session")
def fano_pair():
    return build_PG(2, 2, 1)


@pytest.fixture(scope="session")
def ag322_pair():
    return build_AG(3, 2, 2)


@pytest.fixture(scope="session")
def pg132_pair():
    return build_PG(3, 2, 1)


@pytest.fixture(scope="session")
def pg232_pair():
    return build_PG(3, 2, 2)


@pytest.fixture(scope="session")
def symplectic_pair():
    return build_symplectic_subdesign(2, 2)


@pytest.fixture(scope="session")
def corpus_instances():
    return bundled_corpus()


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    write_corpus(directory)
    return directory


@pytest.fixture(scope="session")
def a7():
    return group(7, "(1 2 3)", "(1 2 3 4 5 6 7)")


@pytest.fixture(scope="session")
def frobenius21():
    return group(7, "(1 2 3 4 5 6 7)", "(1 2 4)(3 6 5)")


@pytest.fixture(scope="session")
def s4():
    return group(4, "(1 2)", "(1 2 3 4)")
