"""Run the suite in reverse collection order: ``pytest -p tests.reverse_order``.

A test that passes only after some earlier test has run leans on state that
test left behind; reversing the order makes such a leak fail.
"""


def pytest_collection_modifyitems(items):
    items.reverse()
