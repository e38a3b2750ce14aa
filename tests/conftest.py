import weakref

import pytest

from heartproof import modules


@pytest.fixture(autouse=True)
def fresh_hearts(monkeypatch):
    """An empty map of judged hearts (`modules.judge_heart`) for every test,
    so that each test judges its hearts afresh and leaves none behind."""
    monkeypatch.setattr(modules, "_HEARTS", weakref.WeakKeyDictionary())
