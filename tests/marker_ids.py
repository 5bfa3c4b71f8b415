"""A pytest plugin that lists each collected test with its markers.

    PYTHONPATH=src:tests python -m pytest --collect-only -qq -p marker_ids tests

After collection it prints one line per test: its node id, then the name
of each of its markers, all separated by tabs.  At -qq pytest itself
lists only a count per file, so the lines that hold a tab are these.
"""


def pytest_report_collectionfinish(items):
    return ["\t".join([item.nodeid,
                       *sorted({mark.name for mark in item.iter_markers()})])
            for item in items]
