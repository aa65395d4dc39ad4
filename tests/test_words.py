import pytest

from uniseq.errors import AlphabetError
from uniseq.words import check_word


def test_alphabet_validation():
    with pytest.raises(AlphabetError):
        check_word("abc")
    with pytest.raises(AlphabetError):
        check_word(3)
